// Stress tests for the event scheduler's widened skip horizons: the cases
// most likely to break bit-identity with the FG_CYCLE_EXACT reference.
// Horizons landing exactly on DRAM/PTW completion cycles, zero-length skip
// windows forced by tiny queues, CDC deliveries racing the memoized
// slow-rest horizon, cap-bounded windows, and the 2M-cycle drain backstop.
// Each scenario runs both modes and diffs every observable (plus the
// accounting identity stepped + skipped == reference cycles).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/boom/core.h"
#include "src/common/simctl.h"
#include "src/isa/riscv.h"
#include "src/mem/hierarchy.h"
#include "src/soc/experiment.h"
#include "src/soc/figures.h"
#include "src/soc/soc.h"
#include "src/trace/trace.h"
#include "src/trace/workload.h"
#include "tests/skip_diff.h"

namespace fg::soc {
namespace {

// --- In-flight DRAM/PTW completions as horizons --------------------------
//
// The memstall configuration (detailed DRAM + PTW timing, pointer-chasing
// heap workload) is the one the speedup acceptance is measured on: almost
// every skip window ends exactly on a miss-completion cycle, so an
// off-by-one in the horizon shows up as a cycle-count diff immediately.
TEST(SkipStress, MemstallBitIdenticalAndMajoritySkipped) {
  for (const u64 n : {4'000ull, 12'000ull, 30'000ull}) {
    const trace::WorkloadConfig wl = memstall_workload(n);
    const SocConfig sc = memstall_soc();
    const std::string label = "memstall/" + std::to_string(n);
    const RunResult exact = run_mode(true, wl, sc);
    const RunResult event = run_mode(false, wl, sc);
    expect_identical(exact, event, label);
    // The point of the config: most cycles are provably dead and the core's
    // own horizon (ROB-head miss completion) bounds real windows.
    EXPECT_GT(event.sched.skipped_fraction(), 0.5) << label;
    EXPECT_GT(event.sched.bound_core, 0u) << label;
  }
}

// --- Horizon exactness at the cycle level --------------------------------
//
// A hand-built dependent-load chain against the detailed DRAM model: at
// every fixed point the core's next_event() must be *tight* — dead on every
// cycle strictly before it, and live exactly at it (the ROB head's
// completion). A conservative (early) horizon costs only speed; a late one
// corrupts runs — both directions are pinned here.
class VecSource final : public trace::TraceSource {
 public:
  explicit VecSource(std::vector<trace::TraceInst> v) : v_(std::move(v)) {}
  bool next(trace::TraceInst& out) override {
    if (i_ >= v_.size()) return false;
    out = v_[i_++];
    return true;
  }
  void reset() override { i_ = 0; }

 private:
  std::vector<trace::TraceInst> v_;
  size_t i_ = 0;
};

TEST(SkipStress, CoreHorizonLandsExactlyOnMissCompletion) {
  std::vector<trace::TraceInst> insts;
  for (int i = 0; i < 48; ++i) {
    // Cold, page-crossing loads (DRAM and PTW misses) each feeding a
    // dependent ALU: the ROB head parks on the miss until its exact
    // completion cycle.
    trace::TraceInst ld;
    ld.pc = 0x1000 + 8 * static_cast<u64>(i);
    ld.enc = isa::make_load(0x3, 5, 2, 0);
    ld.cls = isa::InstClass::kLoad;
    ld.rd = 5;
    ld.mem_size = 8;
    ld.mem_addr = 0x4000'0000 + (static_cast<u64>(i) << 14);
    insts.push_back(ld);
    trace::TraceInst use;
    use.pc = ld.pc + 4;
    use.enc = isa::make_alu_rr(0, 6, 5, 5, false);
    use.cls = isa::InstClass::kIntAlu;
    use.rd = 6;
    use.rs1 = 5;
    use.rs2 = 5;
    insts.push_back(use);
  }
  mem::HierarchyConfig mc;
  mc.detailed_dram = true;
  mc.detailed_ptw = true;
  mem::MemHierarchy mem(mc);
  VecSource src(std::move(insts));
  boom::BoomCore core(boom::CoreConfig{}, mem, src);

  u64 windows = 0;
  Cycle longest = 0;
  for (u64 step = 0; step < 500'000; ++step) {
    const bool active = core.tick(nullptr);
    if (active) continue;
    const Cycle h = core.next_event();
    if (h == kNoEvent) break;
    ASSERT_GE(h, core.now());
    if (h <= core.now() + 1) continue;
    ++windows;
    longest = std::max(longest, h - core.now());
    // Dead on every cycle strictly before the horizon...
    while (core.now() < h) {
      ASSERT_FALSE(core.tick(nullptr))
          << "activity at " << core.now() - 1 << " before horizon " << h;
    }
    // ...and live exactly at it: the skipped-to cycle does something.
    EXPECT_TRUE(core.tick(nullptr)) << "conservative horizon at " << h;
  }
  EXPECT_GT(windows, 16u);
  // The windows must actually span in-flight misses, not just 2-cycle
  // scheduling bubbles — otherwise this test stopped testing DRAM horizons.
  EXPECT_GT(longest, 50u);
}

// --- Zero-length windows under tiny queues -------------------------------
//
// Shrinking every frontend queue to its floor makes back-pressure constant:
// the scheduler sees horizons of 0/1 cycles (no skippable window) mixed
// with real ones, exercising the "window too small, just step" paths and
// the freq_ratio-4 slow-boundary alignment.
TEST(SkipStress, TinyQueuesZeroLengthWindows) {
  SocConfig sc = table2_soc();
  sc.frontend.cdc_depth = 4;
  sc.frontend.freq_ratio = 4;
  sc.frontend.mapper_width = 2;
  sc.frontend.filter.fifo_depth = 4;
  sc.ucore.msgq_depth = 8;
  sc.kernels = {deploy(kernels::KernelKind::kPmc, 2),
                deploy(kernels::KernelKind::kShadowStack, 1)};
  for (const char* w : {"blackscholes", "streamcluster"}) {
    const trace::WorkloadConfig wl = paper_workload(w, 9'000);
    expect_identical(run_mode(true, wl, sc), run_mode(false, wl, sc),
                     std::string("tiny_queues/") + w);
  }
}

// --- CDC delivery racing the memoized slow-rest horizon ------------------
//
// Drain windows memoize the engines' rest horizon by epoch; a CDC entry
// whose handshake settles *inside* a window must still be delivered on its
// exact slow boundary (head readiness is re-read fresh, never memoized).
// The memstall config drives long windows while packets trickle through a
// depth-4 CDC: every settle lands inside some window.
TEST(SkipStress, CdcDeliveryRacesMemoizedHorizon) {
  SocConfig sc = memstall_soc();
  sc.frontend.cdc_depth = 4;
  sc.kernels = {deploy(kernels::KernelKind::kPmc, 4)};
  const trace::WorkloadConfig wl = memstall_workload(12'000);
  const RunResult exact = run_mode(true, wl, sc);
  const RunResult event = run_mode(false, wl, sc);
  expect_identical(exact, event, "cdc_race");
  // The race only exists if drain windows actually ran and elided slow
  // boundaries — assert the machinery engaged, not just that nothing broke.
  EXPECT_GT(event.sched.drain_windows, 0u);
  EXPECT_GT(event.sched.slow_ticks_skipped, 0u);
}

// --- Cap-bounded windows -------------------------------------------------
//
// max_fast_cycles caps every window; odd values land the cap mid-window and
// mid-slow-boundary. The truncated run must still match the truncated
// reference bit for bit, and the cap must be what bounded the final skip.
TEST(SkipStress, OddMaxCyclesCapBoundsWindows) {
  for (const u64 cap : {50'001ull, 77'773ull}) {
    SocConfig sc = memstall_soc();
    sc.max_fast_cycles = cap;
    sc.kernels = {deploy(kernels::KernelKind::kPmc, 4)};
    const trace::WorkloadConfig wl = memstall_workload(30'000);
    const std::string label = "cap/" + std::to_string(cap);
    const RunResult exact = run_mode(true, wl, sc);
    const RunResult event = run_mode(false, wl, sc);
    expect_identical(exact, event, label);
    EXPECT_EQ(event.cycles, cap) << label;
    EXPECT_GT(event.sched.bound_cap, 0u) << label;
  }
}

// --- The 2M-cycle drain backstop -----------------------------------------
//
// A shadow stack deployed with round-robin scheduling never circulates the
// block-mode token, so the engines' queues never drain and the end-of-run
// loop runs into the kDrainBackstop. The backstop is an event horizon like
// any other: both modes must cut the run at the same cycle with identical
// stats, and the accounting identity must still hold across it.
TEST(SkipStress, DrainBackstopBitIdentical) {
  SocConfig sc = table2_soc();
  sc.kernels = {deploy(kernels::KernelKind::kShadowStack, 2,
                       kernels::ProgModel::kHybrid, /*use_ha=*/false,
                       core::SchedPolicy::kRoundRobin)};
  const trace::WorkloadConfig wl = paper_workload("ferret", 3'000);
  const RunResult exact = run_mode(true, wl, sc);
  const RunResult event = run_mode(false, wl, sc);
  expect_identical(exact, event, "backstop");
  // Proof the backstop (not normal drain) ended the run: the simulated
  // length exceeds the 2M-cycle drain allowance.
  EXPECT_GT(event.sched.cycles_stepped + event.sched.cycles_skipped,
            2'000'000u);
}

}  // namespace
}  // namespace fg::soc
