// End-to-end attack detection: inject real attacks into the workload and
// verify each guardian kernel catches them through the full pipeline, with
// plausible latencies (Figure 8's measurement path).
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "src/soc/experiment.h"

namespace fg::soc {
namespace {

// gtest prints a parameter that has no operator<< as a dump of its bytes,
// and gtest_discover_tests folds that dump into each ctest name. Implicit
// padding would put uninitialised stack bytes there, so the registered
// names would change from build to build. `name_tag` fills the gap
// explicitly; its values reproduce the names these cases are registered
// under.
struct Scenario {
  kernels::KernelKind kind;
  trace::AttackKind attack;
  u8 name_tag[6];
  const char* name;
};
static_assert(std::has_unique_object_representations_v<Scenario>,
              "Scenario must have no padding: its bytes name the test");

class Detection : public ::testing::TestWithParam<Scenario> {};

trace::WorkloadConfig wl_with_attacks(trace::AttackKind kind, u32 count) {
  trace::WorkloadConfig c;
  c.profile = trace::profile_by_name("ferret");
  c.profile.n_funcs = 48;
  c.seed = 77;
  c.n_insts = 60000;
  c.warmup_insts = 6000;
  c.attacks = {{kind, count}};
  return c;
}

TEST_P(Detection, AllAttacksCaughtWithPlausibleLatency) {
  const Scenario s = GetParam();
  SocConfig sc;
  sc.kernels = {deploy(s.kind, 4)};
  const RunResult r = run_fireguard(wl_with_attacks(s.attack, 25), sc);

  EXPECT_EQ(r.planned_attacks, 25u) << s.name;
  // Every injected attack is detected at least once.
  std::set<u32> ids;
  for (const auto& d : r.detections) ids.insert(d.attack_id);
  EXPECT_EQ(ids.size(), r.planned_attacks) << s.name;

  for (const auto& d : r.detections) {
    EXPECT_GT(d.latency_ns, 0.0);
    EXPECT_LT(d.latency_ns, 50000.0) << s.name;  // µs-scale at the extreme
    EXPECT_GE(d.detect_fast, d.commit_fast);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Detection,
    ::testing::Values(
        Scenario{kernels::KernelKind::kPmc, trace::AttackKind::kPcHijack,
                 {0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, "pmc"},
        Scenario{kernels::KernelKind::kAsan, trace::AttackKind::kHeapOob,
                 {0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, "asan"},
        Scenario{kernels::KernelKind::kUaf, trace::AttackKind::kUseAfterFree,
                 {0x01, 0x1B, 0x00, 0x00, 0x00, 0x00}, "uaf"}),
    [](const auto& info) { return info.param.name; });

TEST(DetectionSs, ShadowStackCatchesCorruptedReturns) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kShadowStack, 4)};
  const RunResult r = run_fireguard(
      wl_with_attacks(trace::AttackKind::kRetCorrupt, 25), sc);
  std::set<u32> ids;
  for (const auto& d : r.detections) ids.insert(d.attack_id);
  // Block-mode handoff can race the last packets of a window; the paper's
  // own design accepts this — but the detector must catch nearly all.
  EXPECT_GE(ids.size() + 3, r.planned_attacks);
}

TEST(DetectionSs, NoFalsePositivesOnCleanTrace) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kShadowStack, 4)};
  trace::WorkloadConfig c = wl_with_attacks(trace::AttackKind::kRetCorrupt, 0);
  c.attacks.clear();
  const RunResult r = run_fireguard(c, sc);
  EXPECT_EQ(r.detections.size(), 0u);
  EXPECT_EQ(r.spurious, 0u);
}

TEST(DetectionAsan, NoFalsePositivesOnCleanTrace) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kAsan, 4)};
  trace::WorkloadConfig c = wl_with_attacks(trace::AttackKind::kHeapOob, 0);
  c.attacks.clear();
  const RunResult r = run_fireguard(c, sc);
  EXPECT_EQ(r.spurious, 0u);
}

TEST(DetectionUaf, NoFalsePositivesOnCleanTrace) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kUaf, 4)};
  trace::WorkloadConfig c = wl_with_attacks(trace::AttackKind::kUseAfterFree, 0);
  c.attacks.clear();
  const RunResult r = run_fireguard(c, sc);
  EXPECT_EQ(r.spurious, 0u);
}

TEST(DetectionHa, AcceleratorCatchesHijacks) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kPmc, 1, kernels::ProgModel::kHybrid,
                       /*use_ha=*/true)};
  const RunResult r = run_fireguard(wl_with_attacks(trace::AttackKind::kPcHijack, 20), sc);
  std::set<u32> ids;
  for (const auto& d : r.detections) ids.insert(d.attack_id);
  EXPECT_EQ(ids.size(), 20u);
}

TEST(DetectionLatency, PmcFasterThanAsanTail) {
  // PMC's check is a two-compare bounds test on a tiny event stream; ASan
  // rides the full load/store firehose. The tails must reflect that.
  SocConfig pmc_sc;
  pmc_sc.kernels = {deploy(kernels::KernelKind::kPmc, 4)};
  const RunResult pmc =
      run_fireguard(wl_with_attacks(trace::AttackKind::kPcHijack, 25), pmc_sc);
  SocConfig asan_sc;
  asan_sc.kernels = {deploy(kernels::KernelKind::kAsan, 4)};
  const RunResult asan =
      run_fireguard(wl_with_attacks(trace::AttackKind::kHeapOob, 25), asan_sc);
  ASSERT_FALSE(pmc.detections.empty());
  ASSERT_FALSE(asan.detections.empty());
  double pmc_worst = 0, asan_worst = 0;
  for (const auto& d : pmc.detections) pmc_worst = std::max(pmc_worst, d.latency_ns);
  for (const auto& d : asan.detections) asan_worst = std::max(asan_worst, d.latency_ns);
  EXPECT_LT(pmc_worst, asan_worst);
}

TEST(DetectionMulti, CombinedKernelsBothDetect) {
  SocConfig sc;
  sc.kernels = {deploy(kernels::KernelKind::kPmc, 2),
                deploy(kernels::KernelKind::kAsan, 4)};
  trace::WorkloadConfig c = wl_with_attacks(trace::AttackKind::kPcHijack, 10);
  c.attacks.push_back({trace::AttackKind::kHeapOob, 10});
  const RunResult r = run_fireguard(c, sc);
  std::set<u32> ids;
  for (const auto& d : r.detections) ids.insert(d.attack_id);
  EXPECT_EQ(ids.size(), 20u);
}

}  // namespace
}  // namespace fg::soc
