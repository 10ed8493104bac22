// Exact JSON round-trips for the simulator's configuration types.
//
// Each config struct lists its fields once (config_json.cc): one writer,
// one reader, the reader's unknown-key check and the `--set` path finder
// all walk that list, so the accepted schema IS the emitted schema. Only
// what is not a plain field is written by hand: the profile's name rebase,
// the kernel deployment's enum strings and its "policy present iff
// overridden" rule, and the attacks and kernels arrays.
//
// `to_json` writes EVERY field (the export of a config is self-contained
// and bit-exact: u64 counters stay u64, doubles are emitted with enough
// digits to reparse to the identical bits). `from_json` starts from a
// caller-supplied base — typically the library defaults (`table2_soc()`,
// `profile_by_name(name)`) — and overrides only the fields present, so a
// hand-written spec file can name a profile and tweak two knobs while an
// exported file reproduces its source struct field-for-field. It rejects,
// naming the dotted path ("soc.mem.l2: unknown key ..."), any key that is
// not a field, a value of the wrong kind, and an integer that does not fit
// the field's C++ type.
//
// This is the canonical serialization: the experiment spec (src/api) embeds
// these objects, and the BaselineCache keys on the compact dump of the
// baseline-relevant subset, so "same serialized sub-spec" and "same
// baseline run" are the same statement.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "src/baseline/instrument.h"
#include "src/common/json.h"
#include "src/soc/soc.h"
#include "src/trace/workload.h"

namespace fg::soc {

// --- enum name maps (serialize via the canonical *_name functions) -------
std::optional<kernels::KernelKind> kernel_kind_from_name(const std::string&);
std::optional<kernels::ProgModel> prog_model_from_name(const std::string&);
std::optional<core::SchedPolicy> sched_policy_from_name(const std::string&);
std::optional<trace::AttackKind> attack_kind_from_name(const std::string&);
std::optional<baseline::SwScheme> sw_scheme_from_name(const std::string&);

// --- workload ------------------------------------------------------------
json::Value workload_to_json(const trace::WorkloadConfig& wl);
/// A known "profile.name" first rebases the profile on the library one;
/// the profile fields present then override it.
bool workload_from_json(const json::Value& v, trace::WorkloadConfig* out,
                        std::string* err);

// --- SoC -----------------------------------------------------------------
json::Value soc_to_json(const SocConfig& sc);
/// Starts from `*out` (pass `table2_soc()` for the paper defaults) and
/// overrides the fields present in `v`.
bool soc_from_json(const json::Value& v, SocConfig* out, std::string* err);

/// A plain integer or bool field of the field lists, by address.
using FieldRef = std::variant<u32*, u64*, int*, bool*>;
/// The integer or bool field at a dotted spec path ("soc.core.rob_entries",
/// "workload.seed"), or nullopt when the path names none.
std::optional<FieldRef> find_field(trace::WorkloadConfig* wl, SocConfig* sc,
                                   std::string_view path);

/// Canonical serialized baseline-relevant sub-spec: everything the
/// unmonitored baseline run reads (workload stream incl. attacks — attacks
/// inject real instructions — plus the full core + memory configuration and
/// the cycle cap). Compact one-line dump; used as the BaselineCache key.
std::string baseline_subspec_json(const trace::WorkloadConfig& wl,
                                  const SocConfig& sc);

}  // namespace fg::soc
