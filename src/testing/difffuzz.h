// Differential fuzz driver: event-driven scheduler vs. cycle-exact
// reference over seeded random scenarios.
//
// For every seed the driver expands a Scenario, runs it once under the
// FG_CYCLE_EXACT stepped loop and once under the default event-driven
// scheduler, and requires the two StatSnapshots to be bit-identical; any
// FG_INVARIANT violation observed in either run (record mode, Debug builds)
// is a failure too. A mismatch is shrunk by trace-length bisection and
// reported with a one-line repro command that reconstructs the exact
// scenario from (seed, envelope bounds, forced length) alone.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/testing/snapshot.h"

namespace fg::fuzz {

/// Injection point for tests: given a scenario and the scheduler mode,
/// produce its snapshot. The default runner flips fg::set_cycle_exact and
/// calls run_scenario_snapshot.
using ScenarioRunner =
    std::function<api::StatSnapshot(const Scenario&, bool exact)>;

struct FuzzOptions {
  u64 seeds = 64;      // how many seeds to run
  u64 seed_base = 1;   // first seed (seed i = seed_base + i)
  ScenarioEnvelope env;
  /// Force every scenario's trace length after generation (0 = off). This is
  /// how a shrunk repro pins the bisected length without re-rolling the rest
  /// of the scenario.
  u64 force_len = 0;
  bool shrink = true;
  bool stop_on_first = false;
  /// Directory for per-failure artifact JSONs ("" = don't write).
  std::string artifact_dir;
  bool verbose = false;
};

struct FuzzFailure {
  u64 seed = 0;
  std::string kind;  // "event_vs_exact" | "invariant"
  std::string summary;
  u64 trace_len = 0;   // as generated (or forced)
  u64 shrunk_len = 0;  // smallest mismatching length found (== trace_len if
                       // shrinking was off or found nothing smaller)
  std::string diff;    // snapshot diff or invariant messages
  std::string repro;   // one-line reproduction command
  std::string artifact_path;  // "" when artifacts are off / write failed
};

struct FuzzReport {
  u64 seeds_run = 0;
  u64 mismatches = 0;
  u64 invariant_violations = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Apply a forced trace length to a generated scenario (shrink/repro path):
/// clamps n_insts and keeps warmup within its envelope fraction.
Scenario with_trace_len(Scenario s, u64 len);

/// Run the differential fuzz. `runner` defaults to the real simulator.
FuzzReport run_fuzz(const FuzzOptions& opt, const ScenarioRunner& runner = {});

}  // namespace fg::fuzz
