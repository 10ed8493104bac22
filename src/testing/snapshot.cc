#include "src/testing/snapshot.h"

#include "src/common/simctl.h"

namespace fg::fuzz {

api::StatSnapshot run_scenario_snapshot_in_mode(const Scenario& s,
                                                bool exact) {
  set_cycle_exact(exact);
  return run_scenario_snapshot(s);
}

api::StatSnapshot run_scenario_snapshot(const Scenario& s) {
  // One shared run path (api::run_spec) under the fuzzer, the golden
  // corpus, SimSession, and the fgsim CLI.
  return api::run_spec(s.spec).snapshot;
}

}  // namespace fg::fuzz
