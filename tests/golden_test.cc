// Golden corpus machinery: update→check round-trip is a no-op, tampering is
// detected, missing files are named. The checked-in corpus itself is gated
// by the fgfuzz_check_golden ctest (`fgsim fuzz --check-golden`).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/testing/golden.h"

namespace fg::fuzz {
namespace {

/// Fast synthetic runner: deterministic per (seed, length, exactness-
/// independent) so corpus mechanics are testable without 20 simulations.
api::StatSnapshot fake_runner(const Scenario& s, bool) {
  api::StatSnapshot snap;
  snap.cycles = s.seed * 1000 + s.wl().n_insts;
  snap.committed = s.wl().n_insts;
  snap.engines.push_back(api::EngineSnap{false, s.seed, 0, 0, 0, 0, 0, 0});
  return snap;
}

std::string corpus_path(const std::string& dir, const char* name) {
  std::string out = dir;
  out += '/';
  out += name;
  out += ".json";
  return out;
}

std::string temp_dir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Golden, UpdateThenCheckIsANoOp) {
  const std::string dir = temp_dir("fg_golden_roundtrip");
  EXPECT_EQ(update_golden(dir, fake_runner), "");
  EXPECT_EQ(check_golden(dir, fake_runner), "");
  // Files exist, one per corpus entry.
  size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++files;
  }
  EXPECT_EQ(files, golden_entries().size());
  std::filesystem::remove_all(dir);
}

TEST(Golden, TamperedSnapshotIsCaughtWithAFieldDiff) {
  const std::string dir = temp_dir("fg_golden_tamper");
  ASSERT_EQ(update_golden(dir, fake_runner), "");
  // Corrupt one counter in one file.
  const std::string victim = corpus_path(dir, golden_entries()[2].name);
  std::stringstream ss;
  {
    std::ifstream in(victim);
    ASSERT_TRUE(in.good());
    ss << in.rdbuf();
  }
  std::string text = ss.str();
  const std::string key = "\"committed\": ";
  const size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + key.size(), 1, '9');
  {
    std::ofstream out(victim);
    out << text;
  }
  const std::string report = check_golden(dir, fake_runner);
  EXPECT_NE(report.find("MISMATCH"), std::string::npos) << report;
  EXPECT_NE(report.find(golden_entries()[2].name), std::string::npos);
  EXPECT_NE(report.find("committed"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Golden, MissingFileIsNamed) {
  const std::string dir = temp_dir("fg_golden_missing");
  ASSERT_EQ(update_golden(dir, fake_runner), "");
  std::filesystem::remove(corpus_path(dir, golden_entries()[0].name));
  const std::string report = check_golden(dir, fake_runner);
  EXPECT_NE(report.find("MISSING"), std::string::npos);
  EXPECT_NE(report.find(golden_entries()[0].name), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Golden, CorpusDefinitionIsStable) {
  // Names and seeds are frozen: changing them orphans checked-in files.
  ASSERT_EQ(golden_entries().size(), 26u);
  EXPECT_STREQ(golden_entries()[0].name, "g01");
  EXPECT_EQ(golden_entries()[0].seed, 1u);
  EXPECT_STREQ(golden_entries()[19].name, "g20");
  EXPECT_EQ(golden_entries()[19].seed, 0x8888u);
  EXPECT_FALSE(golden_entries()[19].stall);
  EXPECT_STREQ(golden_entries()[25].name, "g26");
  EXPECT_EQ(golden_entries()[25].seed, 0xeeeeu);
  EXPECT_TRUE(golden_entries()[25].stall);
  const ScenarioEnvelope env = golden_envelope();
  EXPECT_EQ(env.min_insts, 1'500u);
  EXPECT_EQ(env.max_insts, 5'000u);
  // The stall slice differs from the base envelope ONLY in the bias knob —
  // anything else would silently re-expand g21..g26.
  const ScenarioEnvelope stall = golden_stall_envelope();
  EXPECT_EQ(stall.min_insts, env.min_insts);
  EXPECT_EQ(stall.max_insts, env.max_insts);
  EXPECT_EQ(stall.stall_bound_bias, 1.0);
  EXPECT_EQ(env.stall_bound_bias, 0.0);
}

}  // namespace
}  // namespace fg::fuzz
