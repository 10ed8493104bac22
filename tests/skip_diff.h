// Event-vs-exact comparison shared by the scheduler's differential suites
// (event_skip_test, skip_stress_test, horizon_contract_test): run one
// configuration under the event-driven loop and the FG_CYCLE_EXACT stepped
// reference, diff every observable, and check that the event loop's cycle
// accounting covers exactly the reference's cycles in both clock domains.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/common/simctl.h"
#include "src/soc/experiment.h"
#include "src/soc/soc.h"
#include "src/trace/workload.h"

namespace fg::soc {

/// Restores the scheduler mode even if an assertion fails mid-test.
struct ExactMode {
  explicit ExactMode(bool exact) { set_cycle_exact(exact); }
  ~ExactMode() { set_cycle_exact(false); }
};

/// The event loop only ever *skips* reference work: every fast cycle it did
/// not step and every slow boundary it did not tick must be one the
/// reference stepped or ticked — no more, no fewer.
inline void expect_sched_conserved(const SchedStats& exact,
                                   const SchedStats& event,
                                   const std::string& label) {
  EXPECT_EQ(event.cycles_stepped + event.cycles_skipped, exact.cycles_stepped)
      << label;
  EXPECT_EQ(event.slow_ticks_run + event.slow_ticks_skipped,
            exact.slow_ticks_run)
      << label << " slow boundaries";
}

inline void expect_identical(const RunResult& exact, const RunResult& event,
                             const std::string& label) {
  EXPECT_EQ(exact.cycles, event.cycles) << label;
  EXPECT_EQ(exact.committed, event.committed) << label;
  EXPECT_EQ(exact.packets, event.packets) << label;
  EXPECT_EQ(exact.spurious, event.spurious) << label;
  for (size_t i = 0; i < exact.stall_fractions.size(); ++i) {
    EXPECT_EQ(exact.stall_fractions[i], event.stall_fractions[i])
        << label << " stall cause " << i;
  }
  ASSERT_EQ(exact.detections.size(), event.detections.size()) << label;
  for (size_t i = 0; i < exact.detections.size(); ++i) {
    const DetectionRecord& a = exact.detections[i];
    const DetectionRecord& b = event.detections[i];
    EXPECT_EQ(a.attack_id, b.attack_id) << label;
    EXPECT_EQ(a.engine, b.engine) << label;
    EXPECT_EQ(a.commit_fast, b.commit_fast) << label;
    EXPECT_EQ(a.detect_fast, b.detect_fast) << label;
  }
  expect_sched_conserved(exact.sched, event.sched, label);
}

inline RunResult run_mode(bool exact, const trace::WorkloadConfig& w,
                          const SocConfig& sc) {
  ExactMode mode(exact);
  return run_fireguard(w, sc);
}

}  // namespace fg::soc
