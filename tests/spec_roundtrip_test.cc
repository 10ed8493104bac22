// Serialization exactness over the whole scenario space: every golden
// corpus scenario and 64 fuzz seeds must satisfy
//
//   spec → JSON → spec → simulate  ==  simulate(spec)   (bit-identical)
//
// This is the contract that makes the golden corpus, the fuzz artifacts,
// and user spec files trustworthy: nothing a scenario can randomize is
// outside the serializer's reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "src/api/campaign.h"
#include "src/api/scheduler.h"
#include "src/common/simctl.h"
#include "src/store/faultfs.h"
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

/// A campaign point reaches a forked worker as a job line carrying its
/// spec JSON once; the worker derives the result key from it. Every
/// examples/campaign_quick.json grid point must decode to the same name
/// and result key, with the rest of the job intact.
TEST(SpecRoundTrip, CampaignGridPointsSurviveTheWorkerJob) {
  std::string text, err;
  ASSERT_TRUE(store::read_file(
      std::string(FIREGUARD_SOURCE_DIR) + "/examples/campaign_quick.json",
      &text, &err))
      << err;
  api::ExperimentSpec spec;
  ASSERT_TRUE(api::spec_from_json(text, &spec, &err)) << err;
  std::vector<api::GridPoint> points;
  ASSERT_TRUE(api::expand_grid(spec, &points, &err)) << err;
  ASSERT_EQ(points.size(), 200u);
  const store::FaultOps ops = {3, 1, 4, 1};
  for (u32 i = 0; i < points.size(); ++i) {
    for (const bool with_baseline : {false, true}) {
      const std::string key = api::result_key(points[i].spec, with_baseline);
      api::PointRun run;
      run.key = &key;
      run.point = &points[i];
      run.with_baseline = with_baseline;
      run.index = i;
      run.attempts = 2;
      const std::string line = api::encode_worker_job(run, ops);
      EXPECT_EQ(line.find('\n'), std::string::npos);
      api::WorkerJob job;
      ASSERT_TRUE(api::decode_worker_job(line, &job)) << line;
      EXPECT_EQ(job.point.name, points[i].name);
      EXPECT_EQ(api::result_key(job.point.spec, with_baseline), key)
          << points[i].name;
      EXPECT_EQ(job.with_baseline, with_baseline);
      EXPECT_EQ(job.index, i);
      EXPECT_EQ(job.attempts, 2u);
      EXPECT_EQ(job.fault_ops, ops);
    }
  }
}

/// Every store is addressed by result_key and baseline_key, both built from
/// the canonical spec JSON. One digest over the keys of every grid point of
/// examples/*.json and of the quick Fig. 10 grid pins that JSON byte for
/// byte: a serializer change that moves one byte of one key would turn
/// existing stores into misses, and fails here first.
TEST(SpecRoundTrip, StoreKeysOverTheExampleGridsArePinned) {
  // Fields a spec file leaves out inherit default_spec(), whose trace
  // length reads FG_TRACE_LEN; pin it to its default for the digest.
  const char* env = std::getenv("FG_TRACE_LEN");
  const bool had_env = env != nullptr;
  const std::string saved = had_env ? env : "";
  ::unsetenv("FG_TRACE_LEN");

  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(FIREGUARD_SOURCE_DIR) + "/examples")) {
    if (e.path().extension() == ".json") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 5u);
  std::vector<api::GridPoint> points = api::fig10_points(20'000, true);
  for (const std::string& f : files) {
    std::string text, err;
    ASSERT_TRUE(store::read_file(f, &text, &err)) << err;
    api::ExperimentSpec spec;
    ASSERT_TRUE(api::spec_from_json(text, &spec, &err)) << f << ": " << err;
    std::vector<api::GridPoint> grid;
    ASSERT_TRUE(api::expand_grid(spec, &grid, &err)) << f << ": " << err;
    points.insert(points.end(), grid.begin(), grid.end());
  }
  if (had_env) ::setenv("FG_TRACE_LEN", saved.c_str(), 1);
  ASSERT_EQ(points.size(), 36u + 1 + 200 + 36 + 1 + 1);

  std::string all;
  for (const api::GridPoint& p : points) {
    all += api::result_key(p.spec, false) + "\n" +
           api::result_key(p.spec, true) + "\n" + api::baseline_key(p.spec) +
           "\n";
  }
  EXPECT_EQ(store::hash_hex(all), "16d77e1c326e9752") << points.size();
}

}  // namespace
}  // namespace fg::fuzz
