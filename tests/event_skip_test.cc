// Differential suite for the event-driven scheduler: the default
// cycle-skipping loop must be bit-identical to the FG_CYCLE_EXACT
// one-cycle-at-a-time reference on every paper workload and a grid of
// kernel deployments, plus targeted regressions (µcore stall
// fast-forward, post-completion grace batching, baseline fast-forward).
#include <gtest/gtest.h>

#include "src/api/snapshot.h"
#include "src/common/simctl.h"
#include "src/core/frontend.h"
#include "src/soc/experiment.h"
#include "src/soc/figures.h"
#include "src/soc/soc.h"
#include "src/trace/workload.h"
#include "tests/skip_diff.h"

namespace fg::soc {
namespace {

std::vector<std::pair<trace::AttackKind, u32>> attack_plan() {
  return {{trace::AttackKind::kPcHijack, 3},
          {trace::AttackKind::kRetCorrupt, 3},
          {trace::AttackKind::kHeapOob, 3},
          {trace::AttackKind::kUseAfterFree, 3}};
}

/// Every figures.cc workload under each guardian kernel (with attacks, so
/// detections and the match pass are exercised too).
TEST(EventSkip, BitIdenticalAcrossAllPaperWorkloads) {
  struct Config {
    kernels::KernelKind kind;
    u32 engines;
  };
  const std::vector<Config> grid = {
      {kernels::KernelKind::kPmc, 4},
      {kernels::KernelKind::kShadowStack, 2},
      {kernels::KernelKind::kAsan, 4},
      {kernels::KernelKind::kUaf, 2},
  };
  for (const std::string& w : paper_workloads()) {
    for (const Config& c : grid) {
      SocConfig sc = table2_soc();
      sc.kernels = {deploy(c.kind, c.engines)};
      const trace::WorkloadConfig cfg = paper_workload(w, 8000, attack_plan());
      const std::string label =
          w + "/" + kernels::kernel_name(c.kind) + "/" +
          std::to_string(c.engines);
      expect_identical(run_mode(true, cfg, sc), run_mode(false, cfg, sc),
                       label);
    }
  }
}

/// Deployment shapes beyond single kernels: hardware accelerators, mixed
/// kernels sharing the frontend, a non-default programming model, and the
/// shadow stack's block mode (NoC token traffic).
TEST(EventSkip, BitIdenticalOnDeploymentShapes) {
  const trace::WorkloadConfig cfg =
      paper_workload("ferret", 12000, attack_plan());
  struct Shape {
    std::string label;
    SocConfig sc;
  };
  std::vector<Shape> shapes;
  {
    SocConfig sc = table2_soc();
    sc.kernels = {deploy(kernels::KernelKind::kPmc, 1,
                         kernels::ProgModel::kHybrid, /*use_ha=*/true)};
    shapes.push_back({"pmc_ha", sc});
  }
  {
    SocConfig sc = table2_soc();
    sc.kernels = {deploy(kernels::KernelKind::kShadowStack, 1,
                         kernels::ProgModel::kHybrid, /*use_ha=*/true)};
    shapes.push_back({"shadow_ha", sc});
  }
  {
    SocConfig sc = table2_soc();
    sc.kernels = {deploy(kernels::KernelKind::kPmc, 2),
                  deploy(kernels::KernelKind::kShadowStack, 2),
                  deploy(kernels::KernelKind::kAsan, 4)};
    shapes.push_back({"mixed", sc});
  }
  {
    SocConfig sc = table2_soc();
    sc.kernels = {deploy(kernels::KernelKind::kAsan, 2,
                         kernels::ProgModel::kConventional)};
    shapes.push_back({"asan_conventional", sc});
  }
  {
    SocConfig sc = table2_soc();
    sc.ucore.isax_ma_stage = false;  // stock-Rocket ISAX: long stalls
    sc.kernels = {deploy(kernels::KernelKind::kAsan, 4)};
    shapes.push_back({"asan_postcommit", sc});
  }
  for (const auto& [label, sc] : shapes) {
    expect_identical(run_mode(true, cfg, sc), run_mode(false, cfg, sc), label);
  }
}

/// µcore stall fast-forward: skipping slow ticks a stalled engine would
/// have spent in its early-return path must charge the identical per-engine
/// stall accounting. Stock-Rocket ISAX mode maximizes multi-cycle stalls.
TEST(EventSkip, UcoreStallFastForwardChargesExactStalls) {
  SocConfig sc = table2_soc();
  sc.ucore.isax_ma_stage = false;
  sc.kernels = {deploy(kernels::KernelKind::kAsan, 3)};
  trace::WorkloadConfig cfg = paper_workload("streamcluster", 10000);

  auto engine_stats = [&](bool exact) {
    ExactMode mode(exact);
    trace::WorkloadGen gen(cfg);
    SocConfig sc2 = sc;
    sc2.kparams.text_lo = gen.text_lo();
    sc2.kparams.text_hi = gen.text_hi();
    Soc soc(sc2, gen);
    soc.run();
    std::vector<ucore::UCoreStats> out;
    for (u32 i = 0; i < soc.n_engines(); ++i) {
      out.push_back(soc.engine_ucore(i)->stats());
    }
    if (!exact) {
      // The event loop must actually have exercised the fast-forward path.
      EXPECT_GT(soc.sched_stats().slow_ticks_skipped, 0u);
    }
    return out;
  };

  const auto exact = engine_stats(true);
  const auto event = engine_stats(false);
  ASSERT_EQ(exact.size(), event.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i].stall_cycles, event[i].stall_cycles) << "engine " << i;
    EXPECT_EQ(exact[i].instructions, event[i].instructions) << "engine " << i;
    EXPECT_EQ(exact[i].busy_cycles, event[i].busy_cycles) << "engine " << i;
    EXPECT_EQ(exact[i].packets_popped, event[i].packets_popped)
        << "engine " << i;
  }
}

/// The post-completion grace drain must batch to the same final cycle count
/// the 512-iteration stepped drain reaches.
TEST(EventSkip, GraceDrainBatchesToIdenticalCompletion) {
  SocConfig sc = table2_soc();
  sc.kernels = {deploy(kernels::KernelKind::kShadowStack, 2)};  // block mode
  const trace::WorkloadConfig cfg = paper_workload("swaptions", 6000);
  const RunResult exact = run_mode(true, cfg, sc);
  const RunResult event = run_mode(false, cfg, sc);
  expect_identical(exact, event, "grace_drain");
  // The quiescent drain is hundreds of dead cycles: the scheduler must
  // collapse (most of) it instead of stepping at full tick rate.
  EXPECT_GT(event.sched.cycles_skipped, 256u);
}

/// The unmonitored baseline core uses the same fast-forward machinery.
TEST(EventSkip, BaselineCyclesIdentical) {
  const SocConfig sc = table2_soc();
  for (const std::string& w : paper_workloads()) {
    const trace::WorkloadConfig cfg = paper_workload(w, 8000);
    Cycle a, b;
    {
      ExactMode mode(true);
      a = run_baseline_cycles(cfg, sc);
    }
    {
      ExactMode mode(false);
      b = run_baseline_cycles(cfg, sc);
    }
    EXPECT_EQ(a, b) << w;
  }
}

/// Single-threaded BaselineCache semantics: one miss, then hits, and no
/// in-flight waits when nothing raced.
TEST(EventSkip, BaselineCacheCountsInflightWaits) {
  BaselineCache cache;
  const SocConfig sc = table2_soc();
  const trace::WorkloadConfig cfg = paper_workload("swaptions", 3000);
  bool ran = false;
  const Cycle first = cache.get(cfg, sc, &ran);
  EXPECT_TRUE(ran);
  const Cycle second = cache.get(cfg, sc, &ran);
  EXPECT_FALSE(ran);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.inflight_waits(), 0u);
}

/// Everything a back-pressure run determines: the full stat snapshot, every
/// core counter, and the scheduler's accounting.
struct FullRun {
  api::StatSnapshot snap;
  boom::CoreStats core;
  SchedStats sched;
};

FullRun run_full(bool exact, const trace::WorkloadConfig& wl, SocConfig sc) {
  ExactMode mode(exact);
  trace::WorkloadGen gen(wl);
  sc.kparams.text_lo = gen.text_lo();
  sc.kparams.text_hi = gen.text_hi();
  sc.warm_regions = default_warm_regions(gen, wl.profile);
  Soc soc(sc, gen);
  soc.run();
  return {api::snapshot_of(soc, gen.planned_attacks()), soc.core().stats(),
          soc.sched_stats()};
}

void expect_core_stats_equal(const boom::CoreStats& a, const boom::CoreStats& b,
                             const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.committed, b.committed) << label;
  EXPECT_EQ(a.commit_stall_fireguard, b.commit_stall_fireguard) << label;
  EXPECT_EQ(a.commit_stall_empty, b.commit_stall_empty) << label;
  EXPECT_EQ(a.dispatch_stall_rob, b.dispatch_stall_rob) << label;
  EXPECT_EQ(a.dispatch_stall_iq, b.dispatch_stall_iq) << label;
  EXPECT_EQ(a.dispatch_stall_lsq, b.dispatch_stall_lsq) << label;
  EXPECT_EQ(a.dispatch_stall_pregs, b.dispatch_stall_pregs) << label;
  EXPECT_EQ(a.mispredicts, b.mispredicts) << label;
  EXPECT_EQ(a.prf_contention_delays, b.prf_contention_delays) << label;
  EXPECT_EQ(a.stlf_forwards, b.stlf_forwards) << label;
}

/// Back-pressure windows: stretches in which commit lane 0 is refused
/// against a full CDC are jumped to the core's dispatch horizon or the
/// first slow tick that frees the CDC, with the slow boundaries in between
/// ticked (or elided before the slow horizon) and the per-fast-cycle
/// counters (refusal stalls and their causes, dispatch stalls, CDC rejects,
/// arbiter-blocked cycles) charged in bulk. Each config below is chosen to
/// freeze the core often; each must match the stepped reference on the full
/// snapshot, every core counter and the accounting identities, and must
/// actually have taken windows.
TEST(EventSkip, BackpressureWindowsMatchExactReference) {
  const trace::WorkloadConfig wl = paper_workload("x264", 12000, attack_plan());
  struct Config {
    std::string label;
    SocConfig sc;
  };
  auto asan = [](u32 engines) {
    SocConfig sc = table2_soc();
    sc.kernels = {deploy(kernels::KernelKind::kAsan, engines)};
    return sc;
  };
  std::vector<Config> configs;
  for (const u32 n : {1u, 2u, 4u}) {
    configs.push_back({"asan_" + std::to_string(n), asan(n)});
  }
  configs.push_back({"cdc_depth_2", asan(4)});
  configs.back().sc.frontend.cdc_depth = 2;
  for (const u32 r : {1u, 3u, 4u}) {
    configs.push_back({"freq_ratio_" + std::to_string(r), asan(4)});
    configs.back().sc.frontend.freq_ratio = r;
  }
  // A one- or two-entry CDC filled within one long slow period freezes the
  // core before its head has settled: the window's first boundary comes
  // before the slow horizon and is elided, not ticked.
  configs.push_back({"cdc_depth_1_ratio_4", asan(4)});
  configs.back().sc.frontend.cdc_depth = 1;
  configs.back().sc.frontend.freq_ratio = 4;
  configs.push_back({"cdc_depth_2_ratio_8", asan(4)});
  configs.back().sc.frontend.cdc_depth = 2;
  configs.back().sc.frontend.freq_ratio = 8;
  configs.push_back({"mapper_width_2", asan(4)});
  configs.back().sc.frontend.mapper_width = 2;
  configs.push_back({"filter_width_2", asan(4)});  // narrower than the commit
  configs.back().sc.frontend.filter.width = 2;
  configs.push_back({"fifo_depth_2", asan(4)});
  configs.back().sc.frontend.filter.fifo_depth = 2;
  for (const auto& [label, sc] : configs) {
    const FullRun exact = run_full(true, wl, sc);
    const FullRun event = run_full(false, wl, sc);
    EXPECT_TRUE(api::snapshots_equal(exact.snap, event.snap))
        << label << "\n"
        << api::snapshot_diff(exact.snap, event.snap, "exact", "event");
    expect_core_stats_equal(exact.core, event.core, label);
    expect_sched_conserved(exact.sched, event.sched, label);
    // The stepped reference takes none; the event loop must take some.
    EXPECT_EQ(exact.sched.backpressure_windows, 0u) << label;
    EXPECT_GT(event.sched.backpressure_windows, 0u) << label;
  }
}

/// The window's entry condition needs lane 0 to be full *after* the
/// arbiter pass, not just refused before it: a pass that blocks on the
/// full CDC may first drop the placeholders filling lane 0, and the next
/// commit then succeeds. Skipping from that state would diverge from the
/// stepped reference on every trace.
TEST(EventSkip, BlockedArbiterPassCanStillFreeLaneZero) {
  struct NoEngines final : core::QueueStatus {
    bool engine_queue_full(u32) const override { return false; }
    size_t engine_queue_free(u32) const override { return 16; }
  };
  core::FrontendConfig cfg;
  cfg.filter = core::EventFilterConfig{2, 3};
  cfg.cdc_depth = 1;
  core::Frontend fe(cfg);
  fe.allocator().configure_se(0, 0b1, core::SchedPolicy::kRoundRobin, 0);
  core::Packet v;
  v.valid = true;
  v.gid_bitmap = 1;
  // Commit order: a valid packet on lane 1, then three placeholders fill
  // lane 0 behind it, then a younger valid packet on lane 1.
  v.seq = 0;
  fe.filter().offer_valid(1, v);
  for (u64 seq = 1; seq <= 3; ++seq) fe.filter().offer_placeholder(0, seq);
  v.seq = 4;
  fe.filter().offer_valid(1, v);
  ASSERT_FALSE(fe.filter().lane_ready(0));

  const NoEngines status;
  EXPECT_FALSE(fe.tick_fast(0, status, false));  // seq 0 crosses: CDC full
  ASSERT_TRUE(fe.cdc().full());
  ASSERT_FALSE(fe.filter().lane_ready(0));  // a commit now is refused
  // The blocked pass resolves the placeholders ahead of seq 4 first.
  EXPECT_TRUE(fe.tick_fast(1, status, false));
  EXPECT_TRUE(fe.filter().lane_ready(0));
}

}  // namespace
}  // namespace fg::soc
