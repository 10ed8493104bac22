// Scenario runners for the fuzzing subsystem.
//
// The snapshot type itself — and its equality / diff / JSON machinery —
// lives in the public API layer (src/api/snapshot.h); this header adds the
// scenario-shaped entry points the fuzz driver and the golden corpus
// share. Both delegate to api::run_spec, so the fuzzer exercises exactly
// the code path `fgsim run` serves users with.
#pragma once

#include "src/api/session.h"
#include "src/testing/scenario.h"

namespace fg::fuzz {

/// Run the scenario's spec to completion under the CURRENT scheduler mode
/// (fg::cycle_exact()) and snapshot it.
api::StatSnapshot run_scenario_snapshot(const Scenario& s);

/// The default ScenarioRunner shared by the fuzz driver and the golden
/// corpus: select the scheduler mode, then simulate. Leaves the mode set —
/// callers guard entry/exit (difffuzz's FuzzModeGuard, golden's ModeGuard).
api::StatSnapshot run_scenario_snapshot_in_mode(const Scenario& s,
                                                bool exact);

}  // namespace fg::fuzz
