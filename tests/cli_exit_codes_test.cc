// The fgsim exit-code contract (tools/cli/cli.h): 0 ok, 1 experiment
// failure, 2 usage error, 3 I/O error — consistent across subcommands, so
// scripts and CI can branch on the class of failure without scraping
// stderr. Spawns the real binary; skipped when tools aren't built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#if !defined(_WIN32)
#include <sys/wait.h>
#endif

#include "src/api/spec.h"
#include "tools/cli/cli.h"

namespace fg {
namespace {

#if !defined(FGSIM_BINARY) || defined(_WIN32)

TEST(CliExitCodes, RequiresToolsBuild) {
  GTEST_SKIP() << "no fgsim binary to spawn (tools off or no POSIX shell)";
}

#else

class CliExitCodesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "cli_exit_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  // Run `fgsim <args>` with output discarded; returns the exit code.
  static int fgsim(const std::string& args) {
    const std::string cmd =
        std::string(FGSIM_BINARY) + " " + args + " >/dev/null 2>&1";
    const int st = std::system(cmd.c_str());
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  }

  // A one-point ~600-instruction spec file (sweep-free: fast).
  std::string write_tiny_spec() {
    api::ExperimentSpec spec = api::default_spec();
    spec.name = "exit-codes";
    spec.sweep.clear();
    std::string err;
    EXPECT_TRUE(api::apply_set(&spec, "trace_len", "600", &err)) << err;
    const std::string path = dir_ + "/tiny.json";
    std::ofstream out(path);
    out << api::spec_to_json(spec) << "\n";
    EXPECT_TRUE(out.good());
    return path;
  }

  std::string dir_;
};

TEST_F(CliExitCodesTest, UsageErrorsExitTwo) {
  EXPECT_EQ(fgsim("frobnicate"), cli::kExitUsage);  // unknown command
  EXPECT_EQ(fgsim("run --no-such-flag"), cli::kExitUsage);
  EXPECT_EQ(fgsim("sweep"), cli::kExitUsage);     // --spec missing
  EXPECT_EQ(fgsim("campaign"), cli::kExitUsage);  // --store missing
  EXPECT_EQ(fgsim("campaign --store " + dir_ + "/s --spec " +
                  write_tiny_spec() + " --max-attempts=0"),
            cli::kExitUsage);
  // Malformed spec content is a usage error, not an I/O error.
  const std::string bad = dir_ + "/bad.json";
  std::ofstream(bad) << "{\"this is\": not json";
  EXPECT_EQ(fgsim("run --spec " + bad), cli::kExitUsage);
  EXPECT_EQ(fgsim("campaign --store " + dir_ + "/s --spec " + bad),
            cli::kExitUsage);
}

TEST_F(CliExitCodesTest, MalformedNumericFlagsAndRetiredSpeedFlagsExitTwo) {
  // Each rejected before any work starts: a suffix, no digits, or a value
  // past the field's width is a usage error, never a truncated count.
  const std::string spec = write_tiny_spec();
  const std::string store = " --store " + dir_ + "/s";
  EXPECT_EQ(fgsim("run --spec " + spec + " --attacks=5x"), cli::kExitUsage);
  EXPECT_EQ(fgsim("sweep --spec " + spec + " --jobs=abc"), cli::kExitUsage);
  EXPECT_EQ(fgsim("campaign --spec " + spec + store + " --jobs=4x"),
            cli::kExitUsage);
  EXPECT_EQ(fgsim("campaign --spec " + spec + store + " --backoff-ms=-1"),
            cli::kExitUsage);
  EXPECT_EQ(fgsim("serve" + store + " --socket " + dir_ +
                  "/fg.sock --workers 4294967297"),
            cli::kExitUsage);
  EXPECT_EQ(fgsim("jobs --cancel=7x"), cli::kExitUsage);
  EXPECT_EQ(fgsim("speed --jobs=4x"), cli::kExitUsage);
  EXPECT_EQ(fgsim("speed --trace-len=20k"), cli::kExitUsage);
  // The timing history and its gate are gone; their flags are unknown.
  EXPECT_EQ(fgsim("speed --check"), cli::kExitUsage);
  EXPECT_EQ(fgsim("speed --out=x"), cli::kExitUsage);
}

TEST_F(CliExitCodesTest, SetWorkloadTakesEveryLibraryProfile) {
  EXPECT_EQ(fgsim("spec --set workload=x264"), cli::kExitOk);
  EXPECT_EQ(fgsim("spec --set workload=memstall"), cli::kExitOk);
  EXPECT_EQ(fgsim("spec --set workload=no_such_profile"), cli::kExitUsage);
}

TEST_F(CliExitCodesTest, IoErrorsExitThree) {
  EXPECT_EQ(fgsim("run --spec " + dir_ + "/no_such.json"), cli::kExitIo);
  EXPECT_EQ(fgsim("sweep --spec " + dir_ + "/no_such.json"), cli::kExitIo);
  EXPECT_EQ(fgsim("spec --spec " + dir_ + "/no_such.json"), cli::kExitIo);
  EXPECT_EQ(fgsim("campaign --store " + dir_ + "/s --spec " + dir_ +
                  "/no_such.json"),
            cli::kExitIo);
  // A store rooted inside a plain file cannot be created.
  std::ofstream(dir_ + "/file") << "x";
  EXPECT_EQ(fgsim("campaign --spec " + write_tiny_spec() + " --store " +
                  dir_ + "/file/store"),
            cli::kExitIo);
}

TEST_F(CliExitCodesTest, CampaignSuccessAndAuditExitZero) {
  const std::string spec = write_tiny_spec();
  const std::string store = dir_ + "/store";
  EXPECT_EQ(fgsim("campaign --spec " + spec + " --store " + store +
                  " --no-baseline --in-process --quiet"),
            cli::kExitOk);
  // Resume is also clean (and does no work — covered by campaign_test).
  EXPECT_EQ(fgsim("campaign --spec " + spec + " --store " + store +
                  " --no-baseline --in-process --quiet"),
            cli::kExitOk);
  EXPECT_EQ(fgsim("campaign --store " + store + " --audit"), cli::kExitOk);
}

TEST_F(CliExitCodesTest, FailedPointsExitOne) {
  // Every attempt of point 0 fails by injection: the campaign completes but
  // reports the failed point through the exit code.
  ::setenv("FG_FAULT", "fail@point:0x99", 1);
  const int rc = fgsim("campaign --spec " + write_tiny_spec() + " --store " +
                       dir_ + "/store --no-baseline --in-process " +
                       "--max-attempts=1 --backoff-ms=1 --quiet");
  ::unsetenv("FG_FAULT");
  EXPECT_EQ(rc, cli::kExitFailure);
}

TEST_F(CliExitCodesTest, CorruptStoreAuditExitsOne) {
  const std::string store = dir_ + "/store";
  ASSERT_EQ(fgsim("campaign --spec " + write_tiny_spec() + " --store " +
                  store + " --no-baseline --in-process --quiet"),
            cli::kExitOk);
  // Corrupt the single published entry, then audit.
  bool clobbered = false;
  for (const auto& shard :
       std::filesystem::directory_iterator(store + "/objects")) {
    for (const auto& entry : std::filesystem::directory_iterator(shard)) {
      std::ofstream(entry.path()) << "garbage";
      clobbered = true;
    }
  }
  ASSERT_TRUE(clobbered);
  EXPECT_EQ(fgsim("campaign --store " + store + " --audit"),
            cli::kExitFailure);
  // The corrupt entry was quarantined; a re-audit is clean again.
  EXPECT_EQ(fgsim("campaign --store " + store + " --audit"), cli::kExitOk);
}

TEST_F(CliExitCodesTest, ServeFamilyUsageErrorsExitTwo) {
  EXPECT_EQ(fgsim("serve"), cli::kExitUsage);  // --store/--socket missing
  EXPECT_EQ(fgsim("serve --store " + dir_ + "/s"), cli::kExitUsage);
  EXPECT_EQ(fgsim("serve --store " + dir_ + "/s --socket " + dir_ +
                  "/fg.sock --max-attempts=0"),
            cli::kExitUsage);
  EXPECT_EQ(fgsim("serve --no-such-flag"), cli::kExitUsage);
  EXPECT_EQ(fgsim("submit"), cli::kExitUsage);  // --spec missing
  EXPECT_EQ(fgsim("submit --spec " + write_tiny_spec()),
            cli::kExitUsage);  // --socket missing, no FG_SOCKET
  EXPECT_EQ(fgsim("submit --spec " + write_tiny_spec() + " --set notkey"),
            cli::kExitUsage);
  EXPECT_EQ(fgsim("jobs --no-such-flag"), cli::kExitUsage);
  EXPECT_EQ(fgsim("jobs --cancel=notanumber"), cli::kExitUsage);
  EXPECT_EQ(fgsim("status --no-such-flag"), cli::kExitUsage);
  EXPECT_EQ(fgsim("store"), cli::kExitUsage);  // subcommand missing
  EXPECT_EQ(fgsim("store frobnicate"), cli::kExitUsage);
  EXPECT_EQ(fgsim("store stats"), cli::kExitUsage);  // --store missing
  // Malformed spec content stays a usage error through submit too.
  const std::string bad = dir_ + "/bad.json";
  std::ofstream(bad) << "{\"this is\": not json";
  EXPECT_EQ(fgsim("submit --spec " + bad + " --socket " + dir_ + "/fg.sock"),
            cli::kExitUsage);
}

TEST_F(CliExitCodesTest, DaemonNotRunningExitsThree) {
  // No daemon was ever started: the socket path simply doesn't exist.
  const std::string sock = " --socket " + dir_ + "/no_daemon.sock";
  EXPECT_EQ(fgsim("submit --spec " + write_tiny_spec() + sock), cli::kExitIo);
  EXPECT_EQ(fgsim("jobs" + sock), cli::kExitIo);
  EXPECT_EQ(fgsim("status" + sock), cli::kExitIo);
  // A socket path that exists but is a plain file is just as dead.
  std::ofstream(dir_ + "/notasocket") << "x";
  EXPECT_EQ(fgsim("status --socket " + dir_ + "/notasocket"), cli::kExitIo);
  // And the daemon itself refuses to listen there (it won't unlink a
  // non-socket file).
  EXPECT_EQ(fgsim("serve --store " + dir_ + "/s --socket " + dir_ +
                  "/notasocket"),
            cli::kExitIo);
  // A store rooted inside a plain file cannot be created.
  EXPECT_EQ(fgsim("serve --store " + dir_ + "/notasocket/store --socket " +
                  dir_ + "/fg.sock"),
            cli::kExitIo);
  EXPECT_EQ(fgsim("store stats --store " + dir_ + "/notasocket/store"),
            cli::kExitIo);
  EXPECT_EQ(fgsim("submit --spec " + dir_ + "/no_such.json" + sock),
            cli::kExitIo);
}

TEST_F(CliExitCodesTest, StoreStatsCleanExitsZeroQuarantineExitsOne) {
  const std::string store = dir_ + "/store";
  ASSERT_EQ(fgsim("campaign --spec " + write_tiny_spec() + " --store " +
                  store + " --no-baseline --in-process --quiet"),
            cli::kExitOk);
  EXPECT_EQ(fgsim("store stats --store " + store), cli::kExitOk);
  EXPECT_EQ(fgsim("store stats --store " + store + " --json"), cli::kExitOk);
  // Corrupt the published entry: the audit quarantines it and the exit
  // code says so — and KEEPS saying so while quarantine/ holds evidence.
  for (const auto& shard :
       std::filesystem::directory_iterator(store + "/objects")) {
    for (const auto& entry : std::filesystem::directory_iterator(shard)) {
      std::ofstream(entry.path()) << "garbage";
    }
  }
  EXPECT_EQ(fgsim("store stats --store " + store), cli::kExitFailure);
  EXPECT_EQ(fgsim("store stats --store " + store), cli::kExitFailure);
}

TEST_F(CliExitCodesTest, MalformedFaultEnvAbortsLoudly) {
  ::setenv("FG_FAULT", "not-a-fault-spec", 1);
  const std::string cmd = std::string(FGSIM_BINARY) + " campaign --spec " +
                          write_tiny_spec() + " --store " + dir_ +
                          "/store --no-baseline --in-process --quiet " +
                          ">/dev/null 2>" + dir_ + "/stderr.txt";
  const int st = std::system(cmd.c_str());
  ::unsetenv("FG_FAULT");
  EXPECT_FALSE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
      << "malformed FG_FAULT must never be silently ignored";
  std::ifstream err_in(dir_ + "/stderr.txt");
  std::string text((std::istreambuf_iterator<char>(err_in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("FG_FAULT"), std::string::npos) << text;
  EXPECT_NE(text.find("malformed"), std::string::npos) << text;
}

#endif  // FGSIM_BINARY && !_WIN32

}  // namespace
}  // namespace fg
