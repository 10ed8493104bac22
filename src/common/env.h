// Strict environment-variable parsing.
//
// Simulation knobs read from the environment (FG_TRACE_LEN, FG_ATTACKS, …)
// must never be silently wrong: a typo like FG_TRACE_LEN=150k or an
// overflowing value used to fall back to whatever strtoull left behind and
// quietly simulate the wrong experiment. Here a malformed value is a loud,
// immediate failure that names the variable and the offending text.
#pragma once

#include <optional>

#include "src/common/types.h"

namespace fg {

/// Parse a strictly-decimal u64: the ENTIRE string must be digits (no sign,
/// no whitespace, no suffix) and the value must fit in 64 bits.
/// Returns nullopt otherwise.
std::optional<u64> parse_u64_strict(const char* s);

/// Read env var `name` as a strict decimal u64. Unset or empty → `fallback`.
/// Malformed or overflowing → prints a loud error naming the variable and
/// aborts (this is a configuration error; simulating anyway would silently
/// produce results for the wrong experiment).
u64 env_u64_or(const char* name, u64 fallback);

/// Same, for knobs that must fit in 32 bits (e.g. FG_ATTACKS): additionally
/// aborts when the value exceeds u32 range instead of truncating.
u32 env_u32_or(const char* name, u32 fallback);

}  // namespace fg
