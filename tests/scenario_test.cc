// Scenario generator: seed determinism, envelope validity, corpus coverage,
// and stat-snapshot JSON round-trips.
#include <gtest/gtest.h>

#include <set>

#include "src/core/packet.h"
#include "src/testing/golden.h"
#include "src/testing/scenario.h"
#include "src/testing/snapshot.h"

namespace fg::fuzz {
namespace {

TEST(Scenario, SameSeedSameScenario) {
  for (const u64 seed : {u64{1}, u64{42}, u64{0xdeadbeef}, ~u64{0}}) {
    const Scenario a = scenario_from_seed(seed);
    const Scenario b = scenario_from_seed(seed);
    EXPECT_EQ(scenario_json(a), scenario_json(b)) << seed;
    EXPECT_EQ(scenario_summary(a), scenario_summary(b)) << seed;
  }
}

TEST(Scenario, EveryDrawStaysInsideTheEnvelope) {
  ScenarioEnvelope env;
  env.min_insts = 3'000;
  env.max_insts = 9'000;
  env.max_deployments = 2;
  env.max_engines_per_kernel = 4;
  env.max_attacks_per_kind = 3;
  for (u64 seed = 1; seed <= 300; ++seed) {
    const Scenario s = scenario_from_seed(seed, env);
    EXPECT_GE(s.wl().n_insts, env.min_insts) << seed;
    EXPECT_LE(s.wl().n_insts, env.max_insts) << seed;
    EXPECT_LE(s.wl().warmup_insts, s.wl().n_insts / 5) << seed;
    for (const auto& [kind, count] : s.wl().attacks) {
      EXPECT_GE(count, 1u) << seed;
      EXPECT_LE(count, env.max_attacks_per_kind) << seed;
    }
    ASSERT_GE(s.sc().kernels.size(), 1u) << seed;
    ASSERT_LE(s.sc().kernels.size(), env.max_deployments) << seed;
    u32 engines = 0;
    for (const soc::KernelDeployment& d : s.sc().kernels) {
      EXPECT_GE(d.n_engines, 1u) << seed;
      EXPECT_LE(d.n_engines, env.max_engines_per_kernel) << seed;
      if (d.use_ha) {
        // Only PMC and the shadow stack have hardware-accelerator variants.
        EXPECT_TRUE(d.kind == kernels::KernelKind::kPmc ||
                    d.kind == kernels::KernelKind::kShadowStack)
            << seed;
      }
      engines += d.use_ha ? 1 : d.n_engines;
    }
    EXPECT_LE(engines, core::kMaxEngines) << seed;
    EXPECT_GE(s.sc().frontend.cdc_depth, 4u) << seed;
    EXPECT_GE(s.sc().frontend.filter.fifo_depth, 2u) << seed;  // FG_CHECK floor
    EXPECT_GE(s.sc().frontend.freq_ratio, 2u) << seed;
    EXPECT_LE(s.sc().frontend.freq_ratio, 4u) << seed;
    EXPECT_GE(s.sc().noc_hop_latency, 1u) << seed;
    EXPECT_LE(s.sc().noc_hop_latency, 3u) << seed;
    EXPECT_GE(s.sc().mem.dram_latency, 120u) << seed;
    EXPECT_LE(s.sc().mem.dram_latency, 260u) << seed;
    EXPECT_GE(s.sc().core.phys_regs, 64u) << seed;  // > 32 logical: no deadlock
  }
}

/// The generator must actually exercise the interesting regions of the
/// space — a refactor that accidentally pins a knob would silently narrow
/// every fuzz run.
TEST(Scenario, SeedsCoverTheConfigurationSpace) {
  std::set<kernels::KernelKind> kinds;
  std::set<kernels::ProgModel> models;
  bool saw_ha = false, saw_postcommit = false, saw_mixed = false;
  bool saw_detailed_dram = false, saw_detailed_ptw = false, saw_stlf = false;
  bool saw_mapper2 = false;
  std::set<std::string> workloads;
  for (u64 seed = 1; seed <= 200; ++seed) {
    const Scenario s = scenario_from_seed(seed);
    workloads.insert(s.wl().profile.name);
    for (const soc::KernelDeployment& d : s.sc().kernels) {
      kinds.insert(d.kind);
      models.insert(d.model);
      saw_ha |= d.use_ha;
    }
    saw_postcommit |= !s.sc().ucore.isax_ma_stage;
    saw_mixed |= s.sc().kernels.size() > 1;
    saw_detailed_dram |= s.sc().mem.detailed_dram;
    saw_detailed_ptw |= s.sc().mem.detailed_ptw;
    saw_stlf |= s.sc().core.store_load_forwarding;
    saw_mapper2 |= s.sc().frontend.mapper_width == 2;
  }
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_EQ(models.size(), 4u);
  EXPECT_EQ(workloads.size(), 9u);
  EXPECT_TRUE(saw_ha);
  EXPECT_TRUE(saw_postcommit);
  EXPECT_TRUE(saw_mixed);
  EXPECT_TRUE(saw_detailed_dram);
  EXPECT_TRUE(saw_detailed_ptw);
  EXPECT_TRUE(saw_stlf);
  EXPECT_TRUE(saw_mapper2);
}

/// The golden corpus (20 fixed seeds) must itself cover all four kernels —
/// the comment in golden.cc promises this test enforces it.
TEST(Scenario, GoldenCorpusCoversAllKernels) {
  std::set<kernels::KernelKind> kinds;
  bool saw_mixed = false, saw_postcommit = false;
  bool stall_saw_ma = false, stall_saw_postcommit = false;
  for (const GoldenEntry& e : golden_entries()) {
    const Scenario s = scenario_from_seed(
        e.seed, e.stall ? golden_stall_envelope() : golden_envelope());
    for (const soc::KernelDeployment& d : s.sc().kernels) kinds.insert(d.kind);
    saw_mixed |= s.sc().kernels.size() > 1;
    saw_postcommit |= !s.sc().ucore.isax_ma_stage;
    if (e.stall) {
      // The stall slice is what it claims to be: every entry lands in the
      // memory/stall-bound regime the skip horizons are measured on...
      EXPECT_EQ(s.wl().profile.name, "memstall") << e.name;
      EXPECT_TRUE(s.sc().mem.detailed_dram) << e.name;
      EXPECT_TRUE(s.sc().mem.detailed_ptw) << e.name;
      stall_saw_ma |= s.sc().ucore.isax_ma_stage;
      stall_saw_postcommit |= !s.sc().ucore.isax_ma_stage;
    }
  }
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_TRUE(saw_mixed);
  EXPECT_TRUE(saw_postcommit);
  // ...and mixes both ISAX integrations (deep post-commit µcore stalls are
  // a distinct horizon shape from MA-stage stalls).
  EXPECT_TRUE(stall_saw_ma);
  EXPECT_TRUE(stall_saw_postcommit);
}

/// The bias knob's backward-compatibility contract: a zero bias consumes
/// nothing from the rng stream, so pre-knob expansions (the checked-in
/// g01..g20 snapshots) are byte-identical to current ones.
TEST(Scenario, ZeroStallBiasDrawsNothing) {
  ScenarioEnvelope off = golden_envelope();
  ScenarioEnvelope stall = golden_stall_envelope();
  for (u64 seed = 1; seed <= 40; ++seed) {
    const Scenario base = scenario_from_seed(seed, golden_envelope());
    const Scenario with_knob = scenario_from_seed(seed, off);
    EXPECT_EQ(scenario_json(base), scenario_json(with_knob)) << seed;
    // And the biased expansion shares everything the bias doesn't touch
    // (same kernels — drawn before the bias is consulted).
    const Scenario biased = scenario_from_seed(seed, stall);
    ASSERT_EQ(biased.sc().kernels.size(), base.sc().kernels.size()) << seed;
    for (size_t i = 0; i < biased.sc().kernels.size(); ++i) {
      EXPECT_EQ(biased.sc().kernels[i].kind, base.sc().kernels[i].kind)
          << seed;
    }
  }
}

TEST(Scenario, WithTraceLenClampsWarmup) {
  Scenario s = scenario_from_seed(7);
  s.wl().warmup_insts = 2'000;
  const Scenario t = with_trace_len(s, 500);
  EXPECT_EQ(t.wl().n_insts, 500u);
  EXPECT_LE(t.wl().warmup_insts, 100u);
}

TEST(Snapshot, RunIsDeterministic) {
  ScenarioEnvelope env;
  env.max_insts = 3'000;
  const Scenario s = scenario_from_seed(11, env);
  const api::StatSnapshot a = run_scenario_snapshot(s);
  const api::StatSnapshot b = run_scenario_snapshot(s);
  EXPECT_TRUE(api::snapshots_equal(a, b));
  EXPECT_EQ(api::snapshot_diff(a, b, "a", "b"), "");
  EXPECT_GT(a.committed, 0u);
  EXPECT_GT(a.cdc_pushes, 0u);
  ASSERT_FALSE(a.engines.empty());
}

TEST(Snapshot, JsonRoundTripIsExact) {
  ScenarioEnvelope env;
  env.max_insts = 3'000;
  // An attack-bearing scenario so the detections array is non-trivial.
  Scenario s = scenario_from_seed(3, env);
  s.wl().attacks = {{trace::AttackKind::kPcHijack, 2},
                  {trace::AttackKind::kHeapOob, 2}};
  const api::StatSnapshot a = run_scenario_snapshot(s);
  api::StatSnapshot back;
  ASSERT_TRUE(api::snapshot_from_json(api::snapshot_json(a), &back));
  EXPECT_TRUE(api::snapshots_equal(a, back));
  // Serializing the parsed copy reproduces the text byte-for-byte.
  EXPECT_EQ(api::snapshot_json(a), api::snapshot_json(back));
}

TEST(Snapshot, DiffNamesTheDivergingField) {
  const Scenario s = scenario_from_seed(13, golden_envelope());
  const api::StatSnapshot a = run_scenario_snapshot(s);
  api::StatSnapshot b = a;
  b.noc_messages += 5;
  b.cycles += 1;
  EXPECT_FALSE(api::snapshots_equal(a, b));
  const std::string diff = api::snapshot_diff(a, b, "exact", "event");
  EXPECT_NE(diff.find("noc_messages"), std::string::npos) << diff;
  EXPECT_NE(diff.find("cycles"), std::string::npos) << diff;
}

TEST(Snapshot, RejectsForeignJson) {
  api::StatSnapshot out;
  EXPECT_FALSE(api::snapshot_from_json("{}", &out));
  EXPECT_FALSE(api::snapshot_from_json("not json", &out));
  EXPECT_FALSE(api::snapshot_from_json("{\"schema\": \"other/v9\"}", &out));
}

}  // namespace
}  // namespace fg::fuzz
