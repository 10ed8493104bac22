// Fault-injection harness tests: the FG_FAULT grammar (strict parse, loud
// abort on malformed input) and the injected failure semantics of the
// store's filesystem primitives — torn writes, ENOSPC, rename failures,
// crashes at the worst instant. The recovery paths these faults exercise
// are tested in store_test.cc / campaign_test.cc; here we pin down the
// harness itself so those tests inject what they think they inject.
#include "src/store/faultfs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace fg::store {
namespace {

class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault_clear();
    dir_ = testing::TempDir() + "faultfs_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // stale state from prior runs
    std::string err;
    ASSERT_TRUE(make_dirs(dir_, &err)) << err;
  }
  void TearDown() override { fault_clear(); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static FaultConfig parsed(const std::string& text) {
    FaultConfig cfg;
    std::string err;
    EXPECT_TRUE(parse_fault_spec(text, &cfg, &err)) << err;
    return cfg;
  }

  std::string dir_;
};

TEST_F(FaultFsTest, ParseGrammar) {
  FaultConfig cfg = parsed("torn@write:3");
  ASSERT_EQ(cfg.rules.size(), 1u);
  EXPECT_EQ(cfg.rules[0].kind, FaultKind::kTorn);
  EXPECT_EQ(cfg.rules[0].site, FaultSite::kWrite);
  EXPECT_EQ(cfg.rules[0].nth, 3u);
  EXPECT_EQ(cfg.rules[0].times, 1u);
  EXPECT_EQ(cfg.rules[0].percent, 0u);

  cfg = parsed("seed=42,enospc@write:p25,crash@point:7x99,hang@point:2:5000");
  EXPECT_EQ(cfg.seed, 42u);
  ASSERT_EQ(cfg.rules.size(), 3u);
  EXPECT_EQ(cfg.rules[0].percent, 25u);
  EXPECT_EQ(cfg.rules[1].kind, FaultKind::kCrash);
  EXPECT_EQ(cfg.rules[1].site, FaultSite::kPoint);
  EXPECT_EQ(cfg.rules[1].nth, 7u);
  EXPECT_EQ(cfg.rules[1].times, 99u);
  EXPECT_EQ(cfg.rules[2].kind, FaultKind::kHang);
  EXPECT_EQ(cfg.rules[2].nth, 2u);
  EXPECT_EQ(cfg.rules[2].hang_ms, 5000u);
}

TEST_F(FaultFsTest, ParseRejectsMalformed) {
  FaultConfig cfg;
  std::string err;
  for (const char* bad :
       {"", "torn", "torn@write", "torn@write:", "bogus@write:1",
        "torn@bogus:1", "torn@write:x", "torn@write:p0", "torn@write:p101",
        "seed=notanumber", "torn@write:1,,torn@write:2", "torn@write:1,"}) {
    EXPECT_FALSE(parse_fault_spec(bad, &cfg, &err))
        << "accepted malformed spec: \"" << bad << "\"";
  }
}

// Strict-parse contract shared with FG_TRACE_LEN: a malformed FG_FAULT is a
// loud immediate abort, never a silently fault-free run. Plain TEST (no
// fixture) in threadsafe style: the re-exec'd death-test child must reach
// faults_active() before any fault_configure/fault_clear call, since
// programmatic configuration deliberately supersedes the environment.
TEST(FaultFsEnvTest, MalformedEnvAborts) {
  const std::string saved = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("FG_FAULT", "torn@write", 1);
  EXPECT_DEATH(faults_active(), "FG_FAULT.*malformed");
  ::unsetenv("FG_FAULT");
  ::testing::FLAGS_gtest_death_test_style = saved;
}

TEST_F(FaultFsTest, AtomicWriteCleanRoundtrip) {
  const std::string p = path("clean.txt");
  std::string err, back;
  ASSERT_TRUE(write_file_atomic(p, "hello", &err)) << err;
  ASSERT_TRUE(read_file(p, &back, &err)) << err;
  EXPECT_EQ(back, "hello");
  // Overwrite is atomic too.
  ASSERT_TRUE(write_file_atomic(p, "world", &err)) << err;
  ASSERT_TRUE(read_file(p, &back, &err)) << err;
  EXPECT_EQ(back, "world");
}

TEST_F(FaultFsTest, TornWriteLeavesDestinationIntact) {
  const std::string p = path("torn.txt");
  std::string err;
  ASSERT_TRUE(write_file_atomic(p, "old-content", &err));
  fault_configure(parsed("torn@write:1"));
  EXPECT_FALSE(write_file_atomic(p, "new-content-that-gets-torn", &err));
  EXPECT_NE(err.find("torn"), std::string::npos) << err;
  // The truncated temp was left behind (a crash frozen mid-write) — its
  // path is named in the error message.
  const std::string tag = "left at ";
  const size_t at = err.find(tag);
  ASSERT_NE(at, std::string::npos) << err;
  std::string tmp = err.substr(at + tag.size());
  ASSERT_FALSE(tmp.empty());
  tmp.pop_back();  // trailing ')'
  fault_clear();
  std::string back;
  ASSERT_TRUE(read_file(tmp, &back, &err));
  EXPECT_EQ(back.size(), std::string("new-content-that-gets-torn").size() / 2);
  // The destination still carries the OLD bytes — the torn temp never
  // reached it.
  ASSERT_TRUE(read_file(p, &back, &err));
  EXPECT_EQ(back, "old-content");
}

TEST_F(FaultFsTest, EnospcFailsAndCleansTemp) {
  const std::string p = path("enospc.txt");
  fault_configure(parsed("enospc@write:1"));
  std::string err;
  EXPECT_FALSE(write_file_atomic(p, "content", &err));
  EXPECT_NE(err.find("ENOSPC"), std::string::npos) << err;
  fault_clear();
  EXPECT_FALSE(file_exists(p));
}

TEST_F(FaultFsTest, RenameFailAndReadFail) {
  const std::string p = path("rf.txt");
  std::string err;
  fault_configure(parsed("renamefail@write:1"));
  EXPECT_FALSE(write_file_atomic(p, "content", &err));
  fault_clear();
  EXPECT_FALSE(file_exists(p));

  ASSERT_TRUE(write_file_atomic(p, "content", &err));
  fault_configure(parsed("fail@read:1"));
  std::string out;
  EXPECT_FALSE(read_file(p, &out, &err));
  EXPECT_NE(err.find("injected"), std::string::npos) << err;
  fault_clear();
  ASSERT_TRUE(read_file(p, &out, &err));
  EXPECT_EQ(out, "content");
}

TEST_F(FaultFsTest, NthOrdinalCountsPerSite) {
  fault_configure(parsed("torn@write:2"));
  std::string err;
  EXPECT_TRUE(write_file_atomic(path("a"), "1", &err));   // op 1: clean
  EXPECT_FALSE(write_file_atomic(path("b"), "2", &err));  // op 2: torn
  EXPECT_TRUE(write_file_atomic(path("c"), "3", &err));   // op 3: clean
}

// The op ordinals read back as counted, and installing a saved set makes
// the next op take the ordinal after it, as in the process it came from.
TEST_F(FaultFsTest, OpOrdinalsRoundTripThroughGetAndSet) {
  std::string err;
  EXPECT_EQ(fault_ops(), FaultOps{});
  fault_configure(parsed("torn@write:3"));
  EXPECT_TRUE(write_file_atomic(path("a"), "1", &err));  // op 1
  std::string out;
  EXPECT_FALSE(read_file(path("missing"), &out, &err));  // read op 1
  const FaultOps saved = fault_ops();
  EXPECT_EQ(saved[static_cast<size_t>(FaultSite::kWrite)], 1u);
  EXPECT_EQ(saved[static_cast<size_t>(FaultSite::kRead)], 1u);
  EXPECT_EQ(saved[static_cast<size_t>(FaultSite::kRename)], 0u);

  EXPECT_TRUE(write_file_atomic(path("b"), "2", &err));   // op 2
  EXPECT_FALSE(write_file_atomic(path("c"), "3", &err));  // op 3: torn
  set_fault_ops(saved);  // back to one write done
  EXPECT_EQ(fault_ops(), saved);
  EXPECT_TRUE(write_file_atomic(path("d"), "4", &err));   // op 2 again
  EXPECT_FALSE(write_file_atomic(path("e"), "5", &err));  // op 3 again: torn
}

TEST_F(FaultFsTest, TimesAffectsConsecutiveOps) {
  fault_configure(parsed("enospc@write:1x3"));
  std::string err;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(write_file_atomic(path("x"), "v", &err)) << "op " << i;
  }
  EXPECT_TRUE(write_file_atomic(path("x"), "v", &err));
}

TEST_F(FaultFsTest, PercentRulesAreSeedDeterministic) {
  auto pattern = [&](u64 seed) {
    FaultConfig cfg = parsed("enospc@write:p40");
    cfg.seed = seed;
    fault_configure(cfg);
    std::vector<bool> fails;
    std::string err;
    for (int i = 0; i < 32; ++i) {
      fails.push_back(!write_file_atomic(path("p"), "v", &err));
    }
    fault_clear();
    return fails;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  EXPECT_EQ(a, b) << "same seed must inject the identical fault sequence";
  size_t fired = 0;
  for (const bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
}

TEST_F(FaultFsTest, CrashAtWorstInstantPreservesOldContent) {
  const std::string p = path("crash.txt");
  std::string err;
  ASSERT_TRUE(write_file_atomic(p, "old", &err));
  fault_configure(parsed("crash@write:1"));
  // The injected crash exits between the fsync'd temp write and the rename
  // — the worst possible instant for a non-atomic writer.
  EXPECT_EXIT(write_file_atomic(p, "new", &err),
              ::testing::ExitedWithCode(kFaultCrashExit), "injected crash");
  fault_clear();
  std::string back;
  ASSERT_TRUE(read_file(p, &back, &err));
  EXPECT_EQ(back, "old");
}

TEST_F(FaultFsTest, PointFaultMatchesIndexAndAttempt) {
  fault_configure(parsed("crash@point:7"));
  EXPECT_FALSE(point_fault(6, 0).has_value());
  ASSERT_TRUE(point_fault(7, 0).has_value());
  EXPECT_EQ(point_fault(7, 0)->kind, FaultKind::kCrash);
  EXPECT_FALSE(point_fault(7, 1).has_value()) << "retry must run clean";

  fault_configure(parsed("fail@point:3x2"));
  EXPECT_TRUE(point_fault(3, 0).has_value());
  EXPECT_TRUE(point_fault(3, 1).has_value());
  EXPECT_FALSE(point_fault(3, 2).has_value());
}

TEST_F(FaultFsTest, MakeDirsIsIdempotentAndDetectsNonDirs) {
  const std::string nested = dir_ + "/a/b/c";
  std::string err;
  ASSERT_TRUE(make_dirs(nested, &err)) << err;
  ASSERT_TRUE(make_dirs(nested, &err)) << err;  // mkdir -p semantics
  const std::string f = path("plainfile");
  ASSERT_TRUE(write_file_atomic(f, "x", &err));
  EXPECT_FALSE(make_dirs(f + "/sub", &err));
}

}  // namespace
}  // namespace fg::store
