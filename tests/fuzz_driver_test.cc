// Differential fuzz driver: real mini-run plus fault-injection through the
// runner hook (mismatch reporting, trace-length shrinking, repro lines,
// artifact files, invariant-violation routing).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/invariant.h"
#include "src/testing/difffuzz.h"
#include "src/common/json.h"

namespace fg::fuzz {
namespace {

/// A real (simulating) fuzz pass over a handful of seeds must be clean:
/// this is the in-tree smoke for the `fgsim fuzz` CI gate.
TEST(FuzzDriver, RealSeedsAreCleanAndReported) {
  FuzzOptions opt;
  opt.seeds = 4;
  opt.seed_base = 101;
  opt.env.max_insts = 3'000;
  const FuzzReport r = run_fuzz(opt);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.seeds_run, 4u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

/// Synthetic runner whose "event" mode diverges whenever the trace length
/// is >= the planted threshold: the driver must catch it, bisect down to
/// the threshold, and emit a --force-len repro.
TEST(FuzzDriver, ShrinksAMismatchToThePlantedThreshold) {
  constexpr u64 kBugLen = 4'321;
  auto fake = [](const Scenario& s, bool exact) {
    api::StatSnapshot snap;
    snap.cycles = 1000;
    snap.committed = s.wl().n_insts;
    if (!exact && s.wl().n_insts >= kBugLen) snap.cycles += 7;  // the "bug"
    return snap;
  };
  FuzzOptions opt;
  opt.seeds = 1;
  opt.seed_base = 1;
  opt.env.min_insts = 2'000;
  opt.env.max_insts = 12'000;
  opt.force_len = 9'000;  // make the seed's length deterministic & failing
  const FuzzReport r = run_fuzz(opt, fake);
  ASSERT_EQ(r.failures.size(), 1u);
  const FuzzFailure& f = r.failures[0];
  EXPECT_EQ(f.kind, "event_vs_exact");
  EXPECT_EQ(f.trace_len, 9'000u);
  EXPECT_EQ(f.shrunk_len, kBugLen);  // exact: the fake bug IS monotone
  EXPECT_NE(f.diff.find("cycles"), std::string::npos);
  EXPECT_NE(f.repro.find("--seed 0x1"), std::string::npos) << f.repro;
  EXPECT_NE(f.repro.find("--force-len 4321"), std::string::npos) << f.repro;
  EXPECT_NE(f.repro.find("--check"), std::string::npos) << f.repro;
}

TEST(FuzzDriver, WritesAReproducibleArtifact) {
  auto fake = [](const Scenario&, bool exact) {
    api::StatSnapshot snap;
    snap.cycles = exact ? 10 : 11;
    return snap;
  };
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fgfuzz_artifact_test")
          .string();
  std::filesystem::remove_all(dir);
  FuzzOptions opt;
  opt.seeds = 1;
  opt.seed_base = 77;
  opt.shrink = false;
  opt.artifact_dir = dir;
  const FuzzReport r = run_fuzz(opt, fake);
  ASSERT_EQ(r.failures.size(), 1u);
  ASSERT_FALSE(r.failures[0].artifact_path.empty());
  std::ifstream in(r.failures[0].artifact_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value root;
  ASSERT_TRUE(json::parse(ss.str(), &root)) << ss.str();
  EXPECT_EQ(root.get_str("schema"), "fireguard/fgfuzz_failure/v1");
  EXPECT_EQ(root.get_str("kind"), "event_vs_exact");
  EXPECT_NE(root.get_str("repro").find("0x4d"), std::string::npos);
  const json::Value* scen = root.get("scenario");
  ASSERT_NE(scen, nullptr);
  EXPECT_EQ(scen->get_str("seed"), "0x000000000000004d");
  EXPECT_NE(root.get_str("diff").find("cycles"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FuzzDriver, RoutesInvariantViolationsAsFailures) {
  if (!inv::compiled_in()) {
    GTEST_SKIP() << "invariants compiled out in this build type";
  }
  auto fake = [](const Scenario&, bool exact) {
    if (!exact) {
      FG_INVARIANT(false, "test.fake_violation");
    }
    return api::StatSnapshot{};  // snapshots agree; only the invariant fires
  };
  FuzzOptions opt;
  opt.seeds = 1;
  opt.seed_base = 5;
  opt.shrink = false;
  const FuzzReport r = run_fuzz(opt, fake);
  // The driver resets counters per scenario; this scenario's event run
  // recorded exactly one violation, without aborting.
  EXPECT_EQ(inv::violations(), 1u);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, "invariant");
  EXPECT_NE(r.failures[0].diff.find("test.fake_violation"),
            std::string::npos);
  inv::reset_counters();
}

/// run_fuzz must restore the scheduler mode and the abort policy it found.
TEST(FuzzDriver, RestoresGlobalModes) {
  set_cycle_exact(false);
  inv::set_abort_on_violation(true);
  FuzzOptions opt;
  opt.seeds = 1;
  opt.env.max_insts = 2'000;
  run_fuzz(opt, [](const Scenario&, bool) { return api::StatSnapshot{}; });
  EXPECT_FALSE(cycle_exact());
  EXPECT_TRUE(inv::abort_on_violation());
}

}  // namespace
}  // namespace fg::fuzz
