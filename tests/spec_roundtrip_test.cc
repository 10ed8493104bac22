// Serialization exactness over the whole scenario space: every golden
// corpus scenario and 64 fuzz seeds must satisfy
//
//   spec → JSON → spec → simulate  ==  simulate(spec)   (bit-identical)
//
// This is the contract that makes the golden corpus, the fuzz artifacts,
// and user spec files trustworthy: nothing a scenario can randomize is
// outside the serializer's reach.
#include <gtest/gtest.h>

#include "src/common/simctl.h"
#include "src/testing/golden.h"
#include "src/testing/scenario.h"
#include "src/testing/snapshot.h"

namespace fg::fuzz {
namespace {

struct ModeGuard {
  bool entry = cycle_exact();
  ~ModeGuard() { set_cycle_exact(entry); }
};

/// Round-trip one scenario's spec through JSON and require the reparsed
/// spec to (a) reserialize canonically identical and (b) simulate to a
/// bit-identical snapshot.
void check_roundtrip(const Scenario& s) {
  const std::string exported = api::spec_to_json(s.spec);
  api::ExperimentSpec reparsed;
  std::string err;
  ASSERT_TRUE(api::spec_from_json(exported, &reparsed, &err))
      << s.name << ": " << err << "\n" << exported;
  ASSERT_EQ(api::spec_canonical(reparsed), api::spec_canonical(s.spec))
      << s.name << ": canonical form drifted across the round-trip";

  const api::StatSnapshot direct = api::run_spec(s.spec).snapshot;
  const api::StatSnapshot via_json = api::run_spec(reparsed).snapshot;
  EXPECT_TRUE(api::snapshots_equal(direct, via_json))
      << s.name << ":\n"
      << api::snapshot_diff(direct, via_json, "direct", "via_json");
}

TEST(SpecRoundTrip, EveryGoldenScenarioIsBitIdenticalThroughJson) {
  ModeGuard guard;
  set_cycle_exact(false);
  for (const GoldenEntry& e : golden_entries()) {
    check_roundtrip(scenario_from_seed(
        e.seed, e.stall ? golden_stall_envelope() : golden_envelope()));
  }
}

TEST(SpecRoundTrip, SixtyFourFuzzSeedsAreBitIdenticalThroughJson) {
  ModeGuard guard;
  set_cycle_exact(false);
  ScenarioEnvelope env;
  env.min_insts = 1'000;
  env.max_insts = 3'000;  // 128 short runs: exactness, not endurance
  for (u64 seed = 1; seed <= 64; ++seed) {
    check_roundtrip(scenario_from_seed(seed, env));
  }
}

/// The golden corpus carries the spec inside each file; a fresh export of
/// the same seed must parse back to the identical scenario spec.
TEST(SpecRoundTrip, ScenarioJsonEmbedsAReparsableSpec) {
  const Scenario s = scenario_from_seed(0x1234, golden_envelope());
  const std::string text = scenario_json(s);
  json::Value root;
  ASSERT_TRUE(json::parse(text, &root)) << text;
  EXPECT_EQ(root.get_str("name"), s.name);
  const json::Value* spec_v = root.get("spec");
  ASSERT_NE(spec_v, nullptr);
  api::ExperimentSpec reparsed;
  std::string err;
  ASSERT_TRUE(api::spec_from_json(json::dump(*spec_v), &reparsed, &err))
      << err;
  EXPECT_EQ(api::spec_canonical(reparsed), api::spec_canonical(s.spec));
}

}  // namespace
}  // namespace fg::fuzz
