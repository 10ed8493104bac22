// Campaign runner tests: the crash-safe contract end to end. A campaign
// killed at any instant resumes bit-identical with zero re-simulation;
// corrupt store entries are recomputed; hung points are watchdog-killed and
// retried; crashing points cost one attempt, not the campaign. Every fault
// here is injected deterministically via store/faultfs.h.
#include "src/api/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#endif

#include "src/api/scheduler.h"
#include "src/store/faultfs.h"
#include "src/store/result_store.h"

namespace fg::api {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store::fault_clear();
    dir_ = testing::TempDir() + "campaign_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // stale stores from prior runs
  }
  void TearDown() override { store::fault_clear(); }

  // A fast sweep-free spec (~800 instructions); add axes per test.
  static ExperimentSpec tiny_spec(const std::string& name) {
    ExperimentSpec spec = default_spec();
    spec.name = name;
    spec.sweep.clear();
    std::string err;
    EXPECT_TRUE(apply_set(&spec, "trace_len", "800", &err)) << err;
    return spec;
  }

  static void configure_fault(const std::string& text) {
    store::FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(store::parse_fault_spec(text, &cfg, &err)) << err;
    store::fault_configure(cfg);
  }

  CampaignConfig quick_cfg(const std::string& store_subdir) {
    CampaignConfig cfg;
    cfg.store_dir = dir_ + "/" + store_subdir;
    cfg.with_baseline = false;
    cfg.isolate = false;
    cfg.backoff_ms = 1;  // keep injected-retry tests fast
    return cfg;
  }

  void kill_and_resume(u32 jobs);

#if !defined(_WIN32)
  /// True when this process has no child left, reaped or not.
  static bool no_children() {
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
  }
#endif

  std::string dir_;
};

TEST_F(CampaignTest, KeysSeparateBaselinePolicyAndSpec) {
  const ExperimentSpec a = tiny_spec("a");
  ExperimentSpec b = tiny_spec("a");
  std::string err;
  ASSERT_TRUE(apply_set(&b, "seed", "99", &err));

  EXPECT_NE(result_key(a, true), result_key(a, false));
  EXPECT_NE(result_key(a, false), result_key(b, false));
  EXPECT_EQ(result_key(a, false), result_key(tiny_spec("a"), false));
  // For a baseline-mode spec the flag is inert and must not split entries.
  ExperimentSpec base = tiny_spec("a");
  ASSERT_TRUE(apply_set(&base, "mode", "baseline", &err));
  EXPECT_EQ(result_key(base, true), result_key(base, false));

  const std::string hash = campaign_hash(a, true);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(hash, campaign_hash(a, false));
}

TEST_F(CampaignTest, OutcomePayloadZeroesNondeterministicFields) {
  const GridPoint point{"p", tiny_spec("payload")};
  PointExecutor exec(/*with_baseline=*/false);
  RunOutcome o = exec.execute(point);
  RunOutcome o2 = o;
  o2.wall_ms = 1234.5;  // the machine-dependent fields must not leak into
  o2.snapshot.invariant_checks = 7;     // the durable payload
  o2.snapshot.invariant_violations = 1;
  EXPECT_EQ(outcome_payload(o), outcome_payload(o2));
  EXPECT_NE(outcome_payload(o).find("\"cycles\""), std::string::npos);
}

TEST_F(CampaignTest, RunPublishesAndResumeServesFromStore) {
  ExperimentSpec spec = tiny_spec("resume");
  spec.sweep = {{"seed", {"1", "2", "3"}}, {"engines", {"2", "4"}}};
  CampaignConfig cfg = quick_cfg("store");
  cfg.with_baseline = true;  // exercise the durable baseline hooks too

  CampaignRunner first(spec, cfg);
  std::string err;
  ASSERT_TRUE(first.run(&err)) << err;
  EXPECT_EQ(first.stats().points, 6u);
  EXPECT_EQ(first.stats().executed, 6u);
  EXPECT_EQ(first.stats().from_store, 0u);
  EXPECT_EQ(first.stats().failed, 0u);
  for (const std::string& p : first.payloads()) EXPECT_FALSE(p.empty());

  // Same spec, same store: everything is served from disk, nothing runs.
  CampaignRunner second(spec, cfg);
  size_t cache_events = 0;
  second.on_event([&](const CampaignRunner::Event& ev) {
    cache_events += std::string(ev.what) == "cache" ? 1 : 0;
  });
  ASSERT_TRUE(second.run(&err)) << err;
  EXPECT_EQ(second.stats().from_store, 6u);
  EXPECT_EQ(second.stats().executed, 0u);
  EXPECT_EQ(cache_events, 6u);
  EXPECT_EQ(second.payloads(), first.payloads());
}

#if !defined(_WIN32)
TEST_F(CampaignTest, IsolateAndInProcessAreBitIdentical) {
  ExperimentSpec spec = tiny_spec("modes");
  spec.sweep = {{"seed", {"5", "6"}}, {"kernel", {"pmc", "asan"}}};
  std::string err;

  CampaignConfig in_proc = quick_cfg("store_inproc");
  in_proc.with_baseline = true;
  CampaignRunner a(spec, in_proc);
  ASSERT_TRUE(a.run(&err)) << err;

  CampaignConfig isolated = quick_cfg("store_isolated");
  isolated.with_baseline = true;
  isolated.isolate = true;
  CampaignRunner b(spec, isolated);
  ASSERT_TRUE(b.run(&err)) << err;

  EXPECT_EQ(a.stats().executed, 4u);
  EXPECT_EQ(b.stats().executed, 4u);
  EXPECT_EQ(a.payloads(), b.payloads());
  EXPECT_TRUE(no_children()) << "run() must reap its forked workers";
}

// A write-site rule counts ops in process-global order, so a forked worker
// must see each attempt's ordinals as a child forked when the attempt
// starts would. The parent does no write during the run, so every attempt's
// publish is write 1: torn@write:1 tears every attempt, and torn@write:2
// (which a worker counting its own writes would hit in its second point's
// publish) never fires. The counts were measured with a fresh fork per
// attempt and must not move.
TEST_F(CampaignTest, IsolatedWriteRulesFireWhereAFreshForkWould) {
  ExperimentSpec spec = tiny_spec("torn_isolated");
  spec.sweep = {{"seed", {"1", "2", "3", "4", "5", "6"}}};
  CampaignConfig clean = quick_cfg("store_clean");
  CampaignRunner reference(spec, clean);
  std::string err;
  ASSERT_TRUE(reference.run(&err)) << err;

  struct Expect {
    const char* rule;
    size_t executed, retries, failed;
  };
  for (const Expect& e : {Expect{"torn@write:1", 0, 6, 6},
                          Expect{"torn@write:2", 6, 0, 0}}) {
    CampaignConfig cfg = quick_cfg(std::string("store_") + e.rule);
    cfg.isolate = true;
    cfg.jobs = 2;
    cfg.max_attempts = 2;
    CampaignRunner runner(spec, cfg);
    ASSERT_TRUE(runner.init(&err)) << err;  // format.json is not write 1
    configure_fault(e.rule);
    ASSERT_TRUE(runner.run(&err)) << err;
    store::fault_clear();
    EXPECT_EQ(runner.stats().executed, e.executed) << e.rule;
    EXPECT_EQ(runner.stats().retries, e.retries) << e.rule;
    EXPECT_EQ(runner.stats().failed, e.failed) << e.rule;
    for (size_t i = 0; i < runner.payloads().size(); ++i) {
      EXPECT_EQ(runner.payloads()[i],
                e.failed == 0 ? reference.payloads()[i] : std::string())
          << e.rule << " point " << i;
    }
    EXPECT_TRUE(no_children()) << e.rule;
  }
}

// N points on J slots fork exactly J workers; a crashed attempt costs its
// worker, and the slot forks exactly one replacement.
TEST_F(CampaignTest, ForkedWorkersSpawnOncePerSlotPlusOncePerCrash) {
  ExperimentSpec spec = tiny_spec("spawns");
  spec.sweep = {{"seed", {"1", "2", "3", "4", "5", "6"}}};
  std::vector<GridPoint> points;
  std::string err;
  ASSERT_TRUE(expand_grid(spec, &points, &err)) << err;
  for (const char* fault : {"", "crash@point:0"}) {
    const std::string sub = *fault != '\0' ? "crash" : "clean";
    store::ResultStore st;
    ASSERT_TRUE(st.open(dir_ + "/" + sub, &err)) << err;
    if (*fault != '\0') configure_fault(fault);
    // Every forked worker appends one byte to the log.
    const std::string log = dir_ + "/" + sub + ".spawns";
    auto count_spawn = [log] {
      const int fd = ::open(log.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
      (void)!::write(fd, "w", 1);
      ::close(fd);
    };
    SchedulerStats stats;
    {
      PointScheduler sched(&st, fork_attempt_runner(&st, 0.0, count_spawn),
                           /*workers=*/2, /*max_attempts=*/2,
                           /*backoff_ms=*/1);
      sched.add_submission(1, sub, points, /*with_baseline=*/false, false);
      while (!sched.idle()) {
        sched.step(now_ms());
        if (!sched.idle()) sched.wait(now_ms());
      }
      stats = sched.stats();
    }  // stops and reaps the workers
    store::fault_clear();
    EXPECT_EQ(stats.executed, 6u) << sub;
    EXPECT_EQ(stats.failed_points, 0u) << sub;
    EXPECT_EQ(stats.retries, *fault != '\0' ? 1u : 0u) << sub;
    EXPECT_EQ(std::filesystem::file_size(log), *fault != '\0' ? 3u : 2u)
        << sub;
    EXPECT_TRUE(no_children()) << sub;
  }
}

// A driver with its own poll() (the daemon) sleeps on wake_fds(): a busy
// worker's fd turns readable when its attempt finishes, the watchdog
// deadline is reported while it runs, and neither outlives the attempt.
TEST_F(CampaignTest, ForkedWorkerWakesPollWhenItsAttemptFinishes) {
  std::vector<GridPoint> points;
  std::string err;
  ASSERT_TRUE(expand_grid(tiny_spec("wake"), &points, &err)) << err;
  store::ResultStore st;
  ASSERT_TRUE(st.open(dir_ + "/store", &err)) << err;
  std::unique_ptr<AttemptRunner> runner =
      fork_attempt_runner(&st, /*timeout_s=*/60.0);
  const std::string key = result_key(points[0].spec, false);
  PointRun run;
  run.key = &key;
  run.point = &points[0];
  run.with_baseline = false;
  run.attempts = 1;
  const double t0 = now_ms();
  ASSERT_TRUE(runner->start(0, run, t0, &err)) << err;
  EXPECT_DOUBLE_EQ(runner->next_deadline_ms(), t0 + 60000.0);
  std::vector<int> fds;
  runner->wake_fds(&fds);
  ASSERT_EQ(fds.size(), 1u);
  pollfd pfd{fds[0], POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 60000), 1) << "the finished attempt woke nothing";
  std::vector<AttemptResult> done;
  runner->reap(now_ms(), &done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok) << done[0].why;
  fds.clear();
  runner->wake_fds(&fds);
  EXPECT_TRUE(fds.empty());
  EXPECT_EQ(runner->next_deadline_ms(), 0.0);
  runner.reset();  // stops and reaps the idle worker
  EXPECT_TRUE(no_children());
}
#endif

#if defined(__linux__)
// A SIGKILLed parent's idle workers read EOF and exit, even while a sibling
// forked after them is still busy: every worker closes its siblings' socket
// ends, or that sibling would hold an idle worker's socket open.
TEST_F(CampaignTest, KilledParentsIdleWorkersExitOnEof) {
  // Adopt the workers once their parent dies, so they can be waited on.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  ExperimentSpec spec = tiny_spec("orphans");
  spec.sweep = {{"seed", {"1", "2"}}};
  std::vector<GridPoint> points;
  std::string err;
  ASSERT_TRUE(expand_grid(spec, &points, &err)) << err;
  configure_fault("hang@point:1:30000");  // slot 1's worker stays busy
  int pids[2], ready[2];
  ASSERT_EQ(::pipe(pids), 0);
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t parent = ::fork();
  ASSERT_GE(parent, 0);
  if (parent == 0) {
    store::ResultStore st;
    if (!st.open(dir_ + "/store", &err)) std::_Exit(1);
    PointScheduler sched(&st,
                         fork_attempt_runner(&st, 0.0,
                                             [fd = pids[1]] {
                                               const pid_t me = ::getpid();
                                               (void)!::write(fd, &me,
                                                              sizeof(me));
                                             }),
                         /*workers=*/2, /*max_attempts=*/1, /*backoff_ms=*/1);
    // Point 0 done: its worker is idle. Report, then wait to be killed.
    sched.hooks().resolve = [&](const PointRun&) {
      (void)!::write(ready[1], "r", 1);
      for (;;) ::pause();
    };
    sched.add_submission(1, "orphans", points, false, false);
    for (;;) {
      sched.step(now_ms());
      sched.wait(now_ms());
    }
  }
  store::fault_clear();
  ::close(pids[1]);
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1) << "the parent never resolved";
  pid_t workers[2] = {-1, -1};
  size_t got = 0;
  while (got < sizeof(workers)) {
    const ssize_t n = ::read(pids[0], reinterpret_cast<char*>(workers) + got,
                             sizeof(workers) - got);
    ASSERT_GT(n, 0) << "a worker never reported its pid";
    got += static_cast<size_t>(n);
  }
  ::close(pids[0]);
  ::close(ready[0]);
  ASSERT_EQ(::kill(parent, SIGKILL), 0);
  ASSERT_EQ(::waitpid(parent, nullptr, 0), parent);

  // Exactly one worker (the idle one) exits, with status 0, well before the
  // busy one's 30 s hang ends.
  pid_t exited = -1;
  int status = 0;
  for (int waited_ms = 0; waited_ms < 10000 && exited < 0; waited_ms += 5) {
    for (const pid_t w : workers) {
      if (::waitpid(w, &status, WNOHANG) == w) exited = w;
    }
    if (exited < 0) ::usleep(5000);
  }
  EXPECT_GT(exited, 0) << "the idle worker never saw EOF";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (const pid_t w : workers) {
    if (w == exited) continue;
    EXPECT_EQ(::waitpid(w, nullptr, WNOHANG), 0) << "the busy worker is hung";
    ::kill(w, SIGKILL);
    ::waitpid(w, nullptr, 0);
  }
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);
}
#endif

// The acceptance drill: a 200-point campaign killed dead mid-run (injected
// crash = _Exit at point 100, same observable effect as SIGKILL: no
// destructors, no flushes beyond what already hit the disk) resumes with
// zero re-simulation of the published points and a bit-identical result
// set.
// Kill a 200-point campaign at point 100, then resume it. Workers that were
// still running points below 100 when the crash landed die with it, so how
// many points got published before the kill depends on `jobs` and timing.
// The resume arithmetic is exact against that count, taken independently
// from the store between the kill and the resume.
void CampaignTest::kill_and_resume(u32 jobs) {
  ExperimentSpec spec = tiny_spec("kill200");
  std::vector<std::string> seeds;
  for (int s = 1; s <= 50; ++s) seeds.push_back(std::to_string(s));
  spec.sweep = {{"seed", seeds},
                {"kernel", {"pmc", "asan"}},
                {"engines", {"2", "4"}}};
  CampaignConfig cfg = quick_cfg("store");
  cfg.jobs = jobs;
  std::string err;

  CampaignRunner first(spec, cfg);
  ASSERT_TRUE(first.init(&err)) << err;
  ASSERT_EQ(first.points().size(), 200u);
  configure_fault("crash@point:100");
  EXPECT_EXIT(first.run(&err),
              ::testing::ExitedWithCode(store::kFaultCrashExit),
              "injected crash at point 100");
  store::fault_clear();

  // Count what the killed run published, point by point.
  store::ResultStore audit;
  ASSERT_TRUE(audit.open(cfg.store_dir, &err)) << err;
  size_t published = 0;
  std::string payload;
  for (u32 i = 0; i < first.points().size(); ++i) {
    if (audit.get(first.point_key(i), &payload) ==
        store::ResultStore::GetStatus::kHit) {
      ++published;
    }
  }
  EXPECT_NE(audit.get(first.point_key(100), &payload),
            store::ResultStore::GetStatus::kHit)
      << "the crashed point cannot have published";

  CampaignRunner resumed(spec, cfg);
  size_t cache_events = 0;
  resumed.on_event([&](const CampaignRunner::Event& ev) {
    cache_events += std::string(ev.what) == "cache" ? 1 : 0;
  });
  ASSERT_TRUE(resumed.run(&err)) << err;
  // Every published point is served from the store; only the rest re-run.
  EXPECT_EQ(resumed.stats().from_store, published);
  EXPECT_EQ(cache_events, published);
  EXPECT_EQ(resumed.stats().executed, 200u - published);
  EXPECT_EQ(resumed.stats().failed, 0u);
  // The journal replay credits the killed run's attempt on point 100.
  EXPECT_EQ(resumed.journal().points()[100].attempts, 2u);

  // Bit-identity: each payload — whether computed before the kill, or after
  // the resume — equals an independent direct execution of that point.
  PointExecutor exec(/*with_baseline=*/false);
  for (const u32 i : {0u, 99u, 100u, 199u}) {
    EXPECT_EQ(resumed.payloads()[i],
              outcome_payload(exec.execute(resumed.points()[i])))
        << "point " << i;
  }
  for (const std::string& p : resumed.payloads()) EXPECT_FALSE(p.empty());
}

// jobs = 0: FG_JOBS, else the host's core count.
TEST_F(CampaignTest, KilledCampaignResumesBitIdenticalWithZeroReruns) {
  kill_and_resume(0);
}

// Pinned to 4 workers so the parallel crash window (points below 100 still
// in flight at the kill) is exercised on every host.
TEST_F(CampaignTest, KilledParallelCampaignResumesBitIdenticalWithZeroReruns) {
  kill_and_resume(4);
}

// A sweep axis that repeats a value gives two grid points one result key:
// the key executes once, and both indices are journaled done with the
// payload.
TEST_F(CampaignTest, RepeatedAxisValueExecutesOnce) {
  ExperimentSpec spec = tiny_spec("repeat");
  spec.sweep = {{"seed", {"1", "2", "1"}}};
  CampaignRunner runner(spec, quick_cfg("store"));
  size_t dedupe_events = 0;
  runner.on_event([&](const CampaignRunner::Event& ev) {
    dedupe_events += std::string(ev.what) == "dedupe" ? 1 : 0;
  });
  std::string err;
  ASSERT_TRUE(runner.run(&err)) << err;
  const CampaignStats& st = runner.stats();
  EXPECT_EQ(st.points, 3u);
  EXPECT_EQ(st.executed, 2u);
  EXPECT_EQ(st.deduped, 1u);
  EXPECT_EQ(dedupe_events, 1u);
  EXPECT_EQ(st.points, st.from_store + st.deduped + st.executed + st.failed);
  EXPECT_FALSE(runner.payloads()[0].empty());
  EXPECT_EQ(runner.payloads()[0], runner.payloads()[2]);
  for (const auto& p : runner.journal().points()) EXPECT_TRUE(p.done);
}

TEST_F(CampaignTest, CorruptEntryIsQuarantinedAndRecomputed) {
  ExperimentSpec spec = tiny_spec("corrupt");
  spec.sweep = {{"seed", {"1", "2", "3"}}};
  const CampaignConfig cfg = quick_cfg("store");
  std::string err;

  CampaignRunner first(spec, cfg);
  ASSERT_TRUE(first.run(&err)) << err;
  const std::vector<std::string> golden = first.payloads();

  // Flip bits in point 1's entry on disk.
  const std::string path =
      first.result_store().entry_path(first.point_key(1));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputs("XXXX", f);
  std::fclose(f);

  CampaignRunner again(spec, cfg);
  ASSERT_TRUE(again.run(&err)) << err;
  EXPECT_EQ(again.stats().from_store, 2u);
  EXPECT_EQ(again.stats().executed, 1u) << "the corrupt entry must recompute";
  EXPECT_EQ(again.stats().failed, 0u);
  EXPECT_EQ(again.payloads(), golden) << "recompute must be bit-identical";
  EXPECT_GE(again.result_store().stats().quarantined, 1u);
}

#if !defined(_WIN32)
TEST_F(CampaignTest, WatchdogKillsHungPointAndRetrySucceeds) {
  ExperimentSpec spec = tiny_spec("hang");
  spec.sweep = {{"seed", {"1", "2"}}};
  CampaignConfig cfg = quick_cfg("store");
  cfg.isolate = true;
  cfg.point_timeout_s = 0.3;
  cfg.max_attempts = 2;
  // Point 0 hangs 30 s on its first attempt; the watchdog must SIGKILL it
  // long before that and the retry runs clean.
  configure_fault("hang@point:0:30000");

  CampaignRunner runner(spec, cfg);
  std::string err;
  ASSERT_TRUE(runner.run(&err)) << err;
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().failed, 0u);
  EXPECT_EQ(runner.stats().timeouts, 1u);
  EXPECT_EQ(runner.stats().retries, 1u);
  for (const std::string& p : runner.payloads()) EXPECT_FALSE(p.empty());
}

TEST_F(CampaignTest, CrashingPointCostsOneAttemptNotTheCampaign) {
  ExperimentSpec spec = tiny_spec("contained");
  spec.sweep = {{"seed", {"1", "2"}}};
  CampaignConfig cfg = quick_cfg("store");
  cfg.isolate = true;  // the crash lands in a forked child
  configure_fault("crash@point:1");

  CampaignRunner runner(spec, cfg);
  std::string err;
  ASSERT_TRUE(runner.run(&err)) << err;
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().failed, 0u);
  EXPECT_EQ(runner.stats().retries, 1u);
}
#endif

TEST_F(CampaignTest, TornPublishIsRetriedAndSucceeds) {
  const ExperimentSpec spec = tiny_spec("torn");  // one point, no sweep
  CampaignConfig cfg = quick_cfg("store");
  cfg.max_attempts = 2;

  CampaignRunner runner(spec, cfg);
  std::string err;
  // init() first: the store's own format.json write must not consume the
  // injected ordinal (fault_configure resets the op counters).
  ASSERT_TRUE(runner.init(&err)) << err;
  configure_fault("torn@write:1");
  ASSERT_TRUE(runner.run(&err)) << err;
  store::fault_clear();
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().retries, 1u);
  EXPECT_EQ(runner.stats().failed, 0u);
  std::string payload;
  EXPECT_EQ(runner.result_store().get(runner.point_key(0), &payload),
            store::ResultStore::GetStatus::kHit);
  EXPECT_EQ(payload, runner.payloads()[0]);
}

TEST_F(CampaignTest, AttemptsExhaustedRecordsFailedPoint) {
  ExperimentSpec spec = tiny_spec("permafail");
  spec.sweep = {{"seed", {"1", "2"}}};
  CampaignConfig cfg = quick_cfg("store");
  cfg.max_attempts = 2;
  configure_fault("fail@point:0x99");  // every attempt of point 0 fails

  CampaignRunner runner(spec, cfg);
  std::string err;
  ASSERT_TRUE(runner.run(&err)) << err;  // env ok; failure is per-point
  EXPECT_EQ(runner.stats().failed, 1u);
  EXPECT_EQ(runner.stats().retries, 1u);
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_TRUE(runner.payloads()[0].empty());
  EXPECT_FALSE(runner.payloads()[1].empty());
  EXPECT_TRUE(runner.journal().points()[0].failed);

  // A later campaign (fault gone) completes the failed point.
  store::fault_clear();
  CampaignRunner again(spec, cfg);
  ASSERT_TRUE(again.run(&err)) << err;
  EXPECT_EQ(again.stats().from_store, 1u);
  EXPECT_EQ(again.stats().executed, 1u);
  EXPECT_EQ(again.stats().failed, 0u);
  EXPECT_FALSE(again.journal().points()[0].failed)
      << "a successful retry must clear the journal's failure mark";
}

}  // namespace
}  // namespace fg::api
