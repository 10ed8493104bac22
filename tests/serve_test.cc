// The serve daemon's acceptance contract, end to end against real forked
// daemon processes:
//
//  * Two concurrent clients submitting overlapping sweep grids get
//    bit-identical outcomes for the shared points, and every unique point
//    executes EXACTLY once (store dedupe + in-flight dedupe, whichever the
//    race selects).
//  * SIGKILL the daemon mid-campaign, restart it on the same store: the
//    journaled submission is replayed, already-published points are store
//    hits, the queue completes with ZERO re-executions, and the store
//    audits clean.
//  * The campaign layer's failure machinery carries over: injected point
//    crashes retry, hung points are watchdog-killed and retried, permafail
//    points count as failed without wedging the submission.
//  * The stats surface is bookkeeping, not vibes: points_submitted ==
//    store_hits + dedupe_hits + executed + failed + cancelled + in-flight
//    holds at every observation point.
#include <gtest/gtest.h>

#if defined(_WIN32)

TEST(Serve, RequiresPosix) {
  GTEST_SKIP() << "fgsim serve needs Unix sockets and fork";
}

#else

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/api/campaign.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/store/faultfs.h"
#include "src/store/result_store.h"

namespace fg::serve {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store::fault_clear();
    ::unsetenv("FG_FAULT");
    dir_ = ::testing::TempDir() + "serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  void TearDown() override {
    if (daemon_pid_ > 0) {
      ::kill(daemon_pid_, SIGKILL);
      int st = 0;
      ::waitpid(daemon_pid_, &st, 0);
      daemon_pid_ = -1;
    }
    ::unsetenv("FG_FAULT");
    store::fault_clear();
  }

  std::string store_dir() const { return dir_ + "/store"; }
  std::string socket_path() const { return dir_ + "/fg.sock"; }

  /// Arm FG_FAULT rules in THIS process so a subsequently forked daemon
  /// (and its forked workers) inherit the table. SetUp's fault_clear()
  /// already initialized the injector, so the env-var path would be
  /// ignored without an exec.
  void install_faults(const std::string& spec) {
    store::FaultConfig fc;
    std::string err;
    ASSERT_TRUE(store::parse_fault_spec(spec, &fc, &err)) << err;
    store::fault_configure(fc);
  }

  /// Fork a real daemon process (it inherits FG_FAULT from the test env)
  /// and wait until it accepts connections.
  void spawn_daemon(u32 workers, u32 max_attempts = 3,
                    double point_timeout_s = 0.0) {
    ASSERT_LT(daemon_pid_, 0) << "daemon already running";
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ServeConfig cfg;
      cfg.store_dir = store_dir();
      cfg.socket_path = socket_path();
      cfg.workers = workers;
      cfg.max_attempts = max_attempts;
      cfg.point_timeout_s = point_timeout_s;
      cfg.backoff_ms = 5;
      cfg.quiet = true;
      ServeDaemon daemon(std::move(cfg));
      std::string err;
      if (!daemon.init(&err)) std::_Exit(3);
      daemon.run(&err);
      // A clean stop leaves no worker behind, reaped or not.
      const bool no_children =
          ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
      std::_Exit(no_children ? 0 : 4);
    }
    daemon_pid_ = pid;
    for (int i = 0; i < 200; ++i) {
      Client probe;
      std::string err;
      if (probe.connect(socket_path(), &err)) return;
      sleep_ms(25);
    }
    FAIL() << "daemon never started listening on " << socket_path();
  }

  void kill_daemon_hard() {
    ASSERT_GT(daemon_pid_, 0);
    ASSERT_EQ(::kill(daemon_pid_, SIGKILL), 0);
    int st = 0;
    ASSERT_EQ(::waitpid(daemon_pid_, &st, 0), daemon_pid_);
    daemon_pid_ = -1;
  }

  void shutdown_daemon() {
    ASSERT_GT(daemon_pid_, 0);
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
    json::Value resp;
    ASSERT_TRUE(c.call(simple_request("shutdown"), &resp, &err)) << err;
    int st = 0;
    ASSERT_EQ(::waitpid(daemon_pid_, &st, 0), daemon_pid_);
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
        << "the daemon failed or left a worker behind";
    daemon_pid_ = -1;
  }

  /// A short sweep over `seeds` (trace_len 3000, no kernel changes —
  /// fast, deterministic points).
  static api::ExperimentSpec sweep_spec(const std::string& name,
                                        std::vector<std::string> seeds) {
    api::ExperimentSpec spec = api::default_spec();
    spec.name = name;
    spec.sweep.clear();
    spec.sweep.push_back({"seed", std::move(seeds)});
    spec.sweep.push_back({"trace_len", {"3000"}});
    return spec;
  }

  json::Value call_ok(Client& c, const std::string& line) {
    json::Value resp;
    std::string err;
    EXPECT_TRUE(c.call(line, &resp, &err)) << err;
    EXPECT_TRUE(resp.get_bool("ok")) << resp.get_str("error");
    return resp;
  }

  json::Value fetch_stats() {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connect(socket_path(), &err)) << err;
    return call_ok(c, simple_request("stats"));
  }

  /// points_submitted == store_hits + dedupe_hits + executed + failed +
  /// cancelled + in-flight: every submitted point is accounted for exactly
  /// once, whatever the interleaving.
  static void expect_stats_consistent(const json::Value& resp) {
    const json::Value* st = resp.get("stats");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->get_u64("points_submitted"),
              st->get_u64("store_hits") + st->get_u64("dedupe_hits") +
                  st->get_u64("executed") + st->get_u64("failed_points") +
                  st->get_u64("cancelled_points") +
                  st->get_u64("queue_depth") + st->get_u64("running"))
        << json::dump(resp, 2);
  }

  /// Poll `status` for submission `id` until complete (bounded).
  json::Value wait_complete(u64 id, int timeout_ms = 120000) {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connect(socket_path(), &err)) << err;
    for (int waited = 0; waited < timeout_ms; waited += 50) {
      json::Value resp = call_ok(c, status_request(id));
      if (resp.get_bool("complete")) return resp;
      sleep_ms(50);
    }
    ADD_FAILURE() << "submission " << id << " never completed";
    return json::Value();
  }

  static u64 count_store_objects(const std::string& store_dir) {
    u64 n = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             store_dir + "/objects", ec)) {
      if (entry.is_regular_file(ec)) ++n;
    }
    return n;
  }

  std::string dir_;
  pid_t daemon_pid_ = -1;
};

// Two concurrent clients, overlapping grids: every unique point executes
// exactly once, shared points answered to both bit-identically.
TEST_F(ServeTest, ConcurrentOverlappingClientsExecuteEachPointOnce) {
  spawn_daemon(/*workers=*/2);
  // A: seeds 1..6, B: seeds 4..9 — 9 unique points, 3 shared. The SPEC
  // name must match for the shared points to be the same experiment
  // (result_key is the canonical spec); the per-submission label is free.
  const api::ExperimentSpec spec_a =
      sweep_spec("shared-grid", {"1", "2", "3", "4", "5", "6"});
  const api::ExperimentSpec spec_b =
      sweep_spec("shared-grid", {"4", "5", "6", "7", "8", "9"});

  json::Value resp_a, resp_b;
  auto submit = [this](const api::ExperimentSpec& spec, json::Value* out) {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
    ASSERT_TRUE(c.call(submit_request(spec, /*wait=*/true,
                                      /*want_results=*/true,
                                      /*with_baseline=*/false),
                       out, &err))
        << err;
  };
  std::thread ta([&] { submit(spec_a, &resp_a); });
  std::thread tb([&] { submit(spec_b, &resp_b); });
  ta.join();
  tb.join();

  for (const json::Value* resp : {&resp_a, &resp_b}) {
    ASSERT_TRUE(resp->get_bool("ok")) << resp->get_str("error");
    EXPECT_TRUE(resp->get_bool("complete"));
    EXPECT_EQ(resp->get_u64("points"), 6u);
    EXPECT_EQ(resp->get_u64("done"), 6u);
    EXPECT_EQ(resp->get_u64("failed"), 0u);
    ASSERT_EQ(resp->get("results")->arr.size(), 6u);
  }

  // Shared seeds 4,5,6 are A's results[3..5] and B's results[0..2] — the
  // answers must be the same stored object, bit for bit.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(json::dump(resp_a.get("results")->arr[3 + i], 0),
              json::dump(resp_b.get("results")->arr[i], 0))
        << "shared seed " << 4 + i << " diverged between clients";
  }

  // 12 submitted, 9 unique: exactly 9 executions, and the 3 shared points
  // were answered by dedupe (in-flight) or the store (post-publish race) —
  // never a second simulation.
  json::Value stats = fetch_stats();
  const json::Value* st = stats.get("stats");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->get_u64("points_submitted"), 12u);
  EXPECT_EQ(st->get_u64("executed"), 9u);
  EXPECT_EQ(st->get_u64("store_hits") + st->get_u64("dedupe_hits"), 3u);
  EXPECT_EQ(st->get_u64("failed_points"), 0u);
  EXPECT_EQ(count_store_objects(store_dir()), 9u);
  expect_stats_consistent(stats);
  shutdown_daemon();
}

// SIGKILL the daemon mid-campaign; a restart on the same store replays the
// journaled submission and completes it with zero re-executions.
TEST_F(ServeTest, KillAndRestartResumesQueueWithZeroReexecution) {
#if defined(__linux__)
  // Adopt the daemon's workers when it dies, so the one still publishing
  // can be waited out before the store is counted.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
#endif
  spawn_daemon(/*workers=*/1);
  const api::ExperimentSpec spec = sweep_spec(
      "doomed", {"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"});
  u64 id = 0;
  {
    Client c;
    std::string err;
    ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
    json::Value ack = call_ok(
        c, submit_request(spec, /*wait=*/false, false, false));
    id = ack.get_u64("id");
    ASSERT_GT(id, 0u);
    EXPECT_EQ(ack.get_u64("points"), 10u);
  }
  // Let the first point publish, then murder the daemon with no warning
  // while the rest are still queued behind its one worker. (A fixed sleep
  // cannot land mid-run on every host: the whole grid takes tens of ms.)
  for (int waited = 0;
       waited < 10000 && count_store_objects(store_dir()) == 0; ++waited) {
    sleep_ms(1);
  }
  kill_daemon_hard();
  while (::waitpid(-1, nullptr, 0) > 0) {
  }
  const u64 published = count_store_objects(store_dir());

  // The journal survived; a fresh daemon resumes into the same queue (and
  // takes over the stale socket file the SIGKILL left behind).
  ASSERT_TRUE(store::file_exists(store_dir() + "/serve/queue/sub-" +
                                 std::string(8 - std::to_string(id).size(),
                                             '0') +
                                 std::to_string(id) + ".json"));
  spawn_daemon(/*workers=*/2);
  json::Value final = wait_complete(id);
  EXPECT_EQ(final.get_u64("points"), 10u);
  EXPECT_EQ(final.get_u64("done"), 10u);
  EXPECT_EQ(final.get_u64("failed"), 0u);
  EXPECT_TRUE(final.get_bool("replayed"));
  EXPECT_EQ(final.get_u64("from_store"), published)
      << "every pre-kill publish must be a store hit on resume";

  json::Value stats = fetch_stats();
  const json::Value* st = stats.get("stats");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->get_u64("submissions_replayed"), 1u);
  EXPECT_EQ(st->get_u64("executed"), 10u - published)
      << "zero re-executions: resumed daemon runs only unpublished points";
  expect_stats_consistent(stats);

  // The store audits clean and the journal entry is gone.
  shutdown_daemon();
  store::ResultStore store;
  std::string err;
  ASSERT_TRUE(store.open(store_dir(), &err)) << err;
  store::ResultStore::AuditReport report;
  ASSERT_TRUE(store.audit(&report, &err)) << err;
  EXPECT_EQ(report.entries, 10u);
  EXPECT_EQ(report.ok, 10u);
  EXPECT_EQ(report.quarantined, 0u);
  u64 journal_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           store_dir() + "/serve/queue")) {
    (void)entry;
    ++journal_files;
  }
  EXPECT_EQ(journal_files, 0u) << "completed submissions leave no journal";
}

// The campaign layer's retry machinery carries over: a crashed first
// attempt and a hung (watchdog-killed) first attempt both retry and
// succeed; the submission completes clean.
TEST_F(ServeTest, InjectedCrashAndHangRetryToSuccess) {
  // Point 0 crashes on attempt one; point 1 hangs (30 s, far past the
  // 0.5 s watchdog) on attempt one. Retries run clean. Installed
  // programmatically BEFORE the fork so the daemon (and its workers)
  // inherit the armed table — the env var path needs an exec to re-read.
  install_faults("crash@point:0,hang@point:1:30000");
  spawn_daemon(/*workers=*/2, /*max_attempts=*/3, /*point_timeout_s=*/0.5);
  const api::ExperimentSpec spec = sweep_spec("faulty", {"1", "2", "3"});
  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
  json::Value resp =
      call_ok(c, submit_request(spec, /*wait=*/true, false, false));
  EXPECT_EQ(resp.get_u64("done"), 3u);
  EXPECT_EQ(resp.get_u64("failed"), 0u);

  json::Value stats = fetch_stats();
  const json::Value* st = stats.get("stats");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->get_u64("executed"), 3u);
  EXPECT_GE(st->get_u64("retries"), 2u);
  EXPECT_EQ(st->get_u64("timeouts"), 1u)
      << "the hung point was watchdog-killed";
  expect_stats_consistent(stats);
  shutdown_daemon();
}

// A point that fails every attempt counts as failed without wedging the
// submission — the waiter is answered (with a null result) and the daemon
// moves on.
TEST_F(ServeTest, PermafailPointCompletesSubmissionAsFailed) {
  install_faults("fail@point:1x99");
  spawn_daemon(/*workers=*/1, /*max_attempts=*/2);
  const api::ExperimentSpec spec = sweep_spec("permafail", {"1", "2", "3"});
  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
  json::Value resp = call_ok(
      c, submit_request(spec, /*wait=*/true, /*want_results=*/true, false));
  EXPECT_TRUE(resp.get_bool("complete"));
  EXPECT_EQ(resp.get_u64("done"), 2u);
  EXPECT_EQ(resp.get_u64("failed"), 1u);
  ASSERT_EQ(resp.get("results")->arr.size(), 3u);
  EXPECT_TRUE(resp.get("results")->arr[0].is_object());
  EXPECT_EQ(resp.get("results")->arr[1].kind, json::Value::Kind::kNull);
  EXPECT_TRUE(resp.get("results")->arr[2].is_object());

  json::Value stats = fetch_stats();
  EXPECT_EQ(stats.get("stats")->get_u64("failed_points"), 1u);
  expect_stats_consistent(stats);
  shutdown_daemon();
}

// Cancel drops pending points (running ones finish and publish), the
// bookkeeping identity holds throughout, and drain leaves a quiet daemon.
TEST_F(ServeTest, CancelAndDrainKeepStatsConsistent) {
  spawn_daemon(/*workers=*/1);
  const api::ExperimentSpec spec = sweep_spec(
      "cancelme", {"1", "2", "3", "4", "5", "6", "7", "8"});
  Client c;
  std::string err;
  ASSERT_TRUE(c.connect(socket_path(), &err)) << err;
  json::Value ack =
      call_ok(c, submit_request(spec, /*wait=*/false, false, false));
  const u64 id = ack.get_u64("id");
  json::Value cancel = call_ok(c, cancel_request(id));
  // Cancelling again is idempotent (0 more points dropped), and cancelling
  // a bogus id is a structured error.
  json::Value again = call_ok(c, cancel_request(id));
  EXPECT_EQ(again.get_u64("cancelled_pending"), 0u);
  json::Value bogus;
  ASSERT_TRUE(c.call(cancel_request(999), &bogus, &err)) << err;
  EXPECT_FALSE(bogus.get_bool("ok"));

  json::Value stats = fetch_stats();
  expect_stats_consistent(stats);
  EXPECT_EQ(stats.get("stats")->get_u64("submissions_cancelled"), 1u);
  EXPECT_GT(cancel.get_u64("cancelled_pending"), 0u);

  // Drain: the in-flight point (if any) finishes, then the daemon reports
  // an empty backlog and refuses new work.
  json::Value drained = call_ok(c, simple_request("drain"));
  EXPECT_TRUE(drained.get_bool("drained"));
  json::Value refused;
  ASSERT_TRUE(c.call(submit_request(spec, false, false, false), &refused,
                     &err))
      << err;
  EXPECT_FALSE(refused.get_bool("ok"));
  json::Value after = fetch_stats();
  expect_stats_consistent(after);
  EXPECT_EQ(after.get("stats")->get_u64("queue_depth"), 0u);
  EXPECT_EQ(after.get("stats")->get_u64("running"), 0u);
  shutdown_daemon();
}

}  // namespace
}  // namespace fg::serve

#endif  // !_WIN32
