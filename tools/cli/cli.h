// The fgsim command set.
//
// One binary, one surface: every subcommand consumes the declarative
// ExperimentSpec (src/api/spec.h) — from a --spec file, --set overrides, or
// legacy flags — and drives the SimSession facade.
//
// Exit-code contract (uniform across subcommands, stable for scripts/CI):
//   0  success
//   1  experiment failure: missed attacks, failed campaign points, a
//      regression gate or store audit finding — the tool ran, the result is
//      bad
//   2  usage error: unknown option/command, malformed spec or --set value
//   3  I/O error: unreadable spec file, unwritable output/store path
// Every nonzero exit is accompanied by a one-line summary on stderr.
//
// Every *_main takes (argc, argv) with argv[0] being the FIRST ARGUMENT
// (program and subcommand names already stripped by the dispatcher).
#pragma once

#include <cstdio>
#include <limits>
#include <optional>

#include "src/common/env.h"

namespace fg::cli {

// The exit-code contract above, by name.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitIo = 3;

/// Parses the value of a numeric flag strictly: decimal digits only (no
/// sign, space or suffix) and within T's range, so `--jobs=4x` or a value
/// past u32 is an error instead of 4 or a truncated count. On failure it
/// prints "<cmd>: <flag> ..." to stderr and returns false; the caller exits
/// kExitUsage.
template <class T>
bool parse_flag(const char* cmd, const char* flag, const char* value,
                T* out) {
  const std::optional<u64> v = parse_u64_strict(value);
  if (!v || *v > std::numeric_limits<T>::max()) {
    std::fprintf(stderr,
                 "fgsim %s: %s expects a decimal integer in [0, %llu], got "
                 "'%s'\n",
                 cmd, flag,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()),
                 value);
    return false;
  }
  *out = static_cast<T>(*v);
  return true;
}

/// `fgsim run`: one experiment, key-value summary on stdout.
/// Accepts --spec/--set plus the legacy flag set.
int run_main(int argc, char** argv);

/// `fgsim sweep`: expand a spec's sweep axes and run the grid in parallel.
int sweep_main(int argc, char** argv);

/// `fgsim campaign`: run a sweep grid against a durable result store —
/// resumable after a crash/kill, with per-point isolation, watchdog, and
/// bounded retry.
int campaign_main(int argc, char** argv);

/// `fgsim spec`: resolve and print a spec (--schema / --keys for tooling).
int spec_main(int argc, char** argv);

/// `fgsim fuzz`: the differential scenario fuzzer + golden-corpus
/// maintainer.
int fuzz_main(int argc, char** argv);

/// `fgsim speed`: the simulator-speed tracker.
int speed_main(int argc, char** argv);

/// `fgsim serve`: the batch experiment daemon — durable store + Unix socket
/// + forked workers with store/in-flight dedupe and work stealing.
int serve_main(int argc, char** argv);

/// `fgsim submit`: send a spec to a running serve daemon (--wait blocks
/// until every point resolves).
int submit_main(int argc, char** argv);

/// `fgsim jobs`: list (or cancel) a serve daemon's submissions.
int jobs_main(int argc, char** argv);

/// `fgsim status`: a serve daemon's live counters (--drain / --shutdown).
int status_main(int argc, char** argv);

/// `fgsim store`: direct store inspection (stats: objects, bytes,
/// quarantine, full audit) — no daemon needed.
int store_main(int argc, char** argv);

}  // namespace fg::cli
