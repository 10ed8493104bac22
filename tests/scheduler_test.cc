// PointScheduler unit tests, driven by a scripted attempt runner: no fork,
// no simulation, a scratch result store and a test-controlled clock. They pin the scheduling
// policy both `fgsim campaign` and `fgsim serve` run on: store hits, in-flight
// dedupe (across submissions and inside one grid), the retry backoff gate,
// attempt exhaustion, cancel, and the stats identity.
#include "src/api/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/api/campaign.h"

namespace fg::api {
namespace {

/// Records every started attempt; the test decides when and how each one
/// finishes.
class ScriptedRunner final : public AttemptRunner {
 public:
  struct Started {
    u32 slot;
    std::string name;
    u32 attempt;
  };

  bool start(u32 slot, const PointRun& p, double, std::string*) override {
    started.push_back({slot, p.point->name, p.attempts - 1});
    return true;
  }
  void reap(double, std::vector<AttemptResult>* done) override {
    for (AttemptResult& r : finished) done->push_back(std::move(r));
    finished.clear();
  }
  void wait(double) override {}

  void succeed(u32 slot, const std::string& payload) {
    AttemptResult r;
    r.slot = slot;
    r.ok = true;
    r.payload = payload;
    finished.push_back(r);
  }
  void fail(u32 slot, const std::string& why) {
    AttemptResult r;
    r.slot = slot;
    r.why = why;
    finished.push_back(r);
  }

  std::vector<Started> started;
  std::vector<AttemptResult> finished;
};

/// One grid point per name; each name is its own experiment (its own seed),
/// so equal names share a result key.
std::vector<GridPoint> grid(const std::vector<std::string>& names) {
  std::vector<GridPoint> points;
  for (const std::string& n : names) {
    GridPoint p{n, default_spec()};
    p.spec.workload.seed = std::hash<std::string>{}(n);
    points.push_back(std::move(p));
  }
  return points;
}

/// A scheduler over a fresh scratch store and a scripted runner.
class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir =
        ::testing::TempDir() + "scheduler_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    std::string err;
    ASSERT_TRUE(store_.open(dir, &err)) << err;
  }

  PointScheduler& make(u32 workers, u32 max_attempts, u64 backoff_ms) {
    auto runner = std::make_unique<ScriptedRunner>();
    runner_ = runner.get();
    sched_ = std::make_unique<PointScheduler>(&store_, std::move(runner),
                                              workers, max_attempts,
                                              backoff_ms);
    return *sched_;
  }

  /// Publish `payload` as the stored result of the point named `name`.
  void store_result(const std::string& name, const std::string& payload) {
    std::string err;
    ASSERT_TRUE(store_.put(result_key(grid({name})[0].spec, false), payload,
                           &err))
        << err;
  }

  Submission& submit(u64 id, const std::vector<std::string>& names) {
    return sched_->add_submission(id, "sub", grid(names),
                                  /*with_baseline=*/false, /*replayed=*/false);
  }

  store::ResultStore store_;
  ScriptedRunner* runner_ = nullptr;
  std::unique_ptr<PointScheduler> sched_;
};

void expect_books_close(const PointScheduler& s) {
  const SchedulerStats& st = s.stats();
  EXPECT_EQ(st.points_submitted,
            st.store_hits + st.dedupe_hits + st.executed + st.failed_points +
                st.cancelled_points + s.queue_depth() + s.running());
}

TEST_F(SchedulerTest, StoreHitResolvesWithoutExecution) {
  PointScheduler& s = make(2, 3, 10);
  ScriptedRunner& runner = *runner_;
  store_result("a", "stored-a");
  Submission& sub = submit(1, {"a", "b"});
  EXPECT_EQ(sub.from_store, 1u);
  EXPECT_EQ(sub.payloads[0], "stored-a");
  EXPECT_TRUE(s.step(0).empty());
  ASSERT_EQ(runner.started.size(), 1u);
  EXPECT_EQ(runner.started[0].name, "b");
  runner.succeed(runner.started[0].slot, "ran-b");
  EXPECT_EQ(s.step(1), std::vector<u64>{1});
  EXPECT_EQ(sub.payloads[1], "ran-b");
  EXPECT_EQ(s.stats().store_hits, 1u);
  EXPECT_EQ(s.stats().executed, 1u);
  EXPECT_TRUE(s.idle());
  expect_books_close(s);
}

TEST_F(SchedulerTest, SharedKeyAcrossSubmissionsLaunchesOnce) {
  PointScheduler& s = make(4, 3, 10);
  ScriptedRunner& runner = *runner_;
  Submission& a = submit(1, {"k"});
  Submission& b = submit(2, {"k"});
  EXPECT_EQ(b.deduped, 1u);
  s.step(0);
  ASSERT_EQ(runner.started.size(), 1u) << "one key, one execution";
  expect_books_close(s);
  runner.succeed(runner.started[0].slot, "answer");
  const std::vector<u64> done = s.step(1);
  EXPECT_EQ(done, (std::vector<u64>{1, 2}));
  EXPECT_EQ(a.payloads[0], "answer");
  EXPECT_EQ(b.payloads[0], "answer");
  EXPECT_EQ(s.stats().executed, 1u);
  EXPECT_EQ(s.stats().dedupe_hits, 1u);
  expect_books_close(s);
}

TEST_F(SchedulerTest, BackoffGateHoldsRetryUntilReady) {
  PointScheduler& s = make(1, 3, /*backoff_ms=*/10);
  ScriptedRunner& runner = *runner_;
  submit(1, {"k"});
  s.step(0);
  runner.fail(0, "killed");
  s.step(5);  // attempt 0 failed at t=5: gate at 5 + 10 << 0 = 15
  EXPECT_EQ(s.stats().retries, 1u);
  EXPECT_DOUBLE_EQ(s.next_ready_ms(), 15.0);
  s.step(14.9);
  EXPECT_EQ(runner.started.size(), 1u) << "relaunched before its gate";
  s.step(15);
  ASSERT_EQ(runner.started.size(), 2u);
  EXPECT_EQ(runner.started[1].attempt, 1u);
  runner.fail(0, "killed");
  s.step(20);  // attempt 1 failed: the backoff doubles, gate at 40
  EXPECT_DOUBLE_EQ(s.next_ready_ms(), 40.0);
  s.step(39);
  EXPECT_EQ(runner.started.size(), 2u);
  s.step(40);
  EXPECT_EQ(runner.started.size(), 3u);
}

TEST_F(SchedulerTest, ExhaustedAttemptsMarkThePointFailed) {
  PointScheduler& s = make(1, /*max_attempts=*/2, 0);
  ScriptedRunner& runner = *runner_;
  std::vector<std::string> whys;
  s.hooks().resolve = [&](const PointRun& p) {
    EXPECT_EQ(p.state, PointState::kFailed);
    whys.push_back(p.why);
  };
  Submission& sub = submit(1, {"k"});
  s.step(0);
  runner.fail(0, "exit_nonzero");
  s.step(1);
  ASSERT_EQ(runner.started.size(), 2u);
  runner.fail(0, "timeout");
  EXPECT_EQ(s.step(2), std::vector<u64>{1});
  EXPECT_EQ(whys, std::vector<std::string>{"timeout"});
  EXPECT_EQ(sub.failed, 1u);
  EXPECT_TRUE(sub.complete());
  EXPECT_TRUE(sub.payloads[0].empty());
  EXPECT_EQ(s.stats().failed_points, 1u);
  EXPECT_EQ(s.stats().retries, 1u);
  EXPECT_TRUE(s.idle());
  expect_books_close(s);
}

TEST_F(SchedulerTest, CancelDropsPendingButNotRunningPoints) {
  PointScheduler& s = make(1, 3, 0);
  ScriptedRunner& runner = *runner_;
  submit(1, {"run", "wait1", "wait2"});
  s.step(0);
  ASSERT_EQ(runner.started.size(), 1u);
  EXPECT_EQ(s.cancel(1), 2u) << "the two pending points are dropped";
  EXPECT_EQ(s.cancel(1), 0u) << "cancel is idempotent";
  EXPECT_EQ(s.cancel(99), static_cast<size_t>(-1));
  EXPECT_EQ(s.running(), 1u) << "the running point keeps running";
  expect_books_close(s);
  runner.succeed(0, "published anyway");
  s.step(1);
  EXPECT_EQ(runner.started.size(), 1u) << "dropped points never launch";
  EXPECT_EQ(s.stats().executed, 1u);
  EXPECT_EQ(s.stats().cancelled_points, 2u);
  EXPECT_TRUE(s.idle());
  expect_books_close(s);
}

// A point two submissions share stays queued when the one that queued it
// cancels: the other submission still gets its answer.
TEST_F(SchedulerTest, CancelKeepsPointsOtherSubmissionsWaitOn) {
  PointScheduler& s = make(1, 3, 0);
  ScriptedRunner& runner = *runner_;
  submit(1, {"first", "shared"});
  Submission& other = submit(2, {"shared"});
  s.step(0);
  ASSERT_EQ(runner.started.size(), 1u);
  EXPECT_EQ(s.cancel(1), 0u) << "both points are still wanted or running";
  runner.succeed(0, "first");
  s.step(1);
  ASSERT_EQ(runner.started.size(), 2u);
  EXPECT_EQ(runner.started[1].name, "shared");
  runner.succeed(0, "shared");
  EXPECT_EQ(s.step(2), std::vector<u64>{2});
  EXPECT_EQ(other.payloads[0], "shared");
  EXPECT_TRUE(s.idle());
  expect_books_close(s);
}

TEST_F(SchedulerTest, PointsSubmittedIdentityHoldsAtEveryStep) {
  PointScheduler& s = make(2, 2, 0);
  ScriptedRunner& runner = *runner_;
  store_result("b", "hit");
  submit(1, {"a", "b", "c", "d"});
  submit(2, {"c", "e"});
  for (double t = 0; !s.idle(); t += 1) {
    s.step(t);
    expect_books_close(s);
    // Fail "a" once and "e" always; everything else succeeds.
    for (const ScriptedRunner::Started& st : runner.started) {
      if (st.name == "a" && st.attempt == 0) {
        runner.fail(st.slot, "killed");
      } else if (st.name == "e") {
        runner.fail(st.slot, "killed");
      } else {
        runner.succeed(st.slot, st.name);
      }
    }
    runner.started.clear();
    ASSERT_LT(t, 100) << "scheduler never went idle";
  }
  const SchedulerStats& st = s.stats();
  EXPECT_EQ(st.points_submitted, 6u);
  EXPECT_EQ(st.store_hits, 1u);
  EXPECT_EQ(st.dedupe_hits, 1u);
  EXPECT_EQ(st.executed, 3u);  // a, c, d
  EXPECT_EQ(st.failed_points, 1u);
  EXPECT_EQ(st.retries, 2u);   // a once, e once before it ran out
  expect_books_close(s);
}

// A sweep axis that repeats a value gives two grid points one result key:
// the key executes once and both indices get the payload.
TEST_F(SchedulerTest, RepeatedAxisValueInOneGridExecutesOnce) {
  ExperimentSpec spec = default_spec();
  spec.sweep = {{"seed", {"7", "8", "7"}}};
  std::vector<GridPoint> points;
  std::string err;
  ASSERT_TRUE(expand_grid(spec, &points, &err)) << err;
  ASSERT_EQ(points.size(), 3u);
  ASSERT_EQ(result_key(points[0].spec, false),
            result_key(points[2].spec, false));

  PointScheduler& s = make(4, 3, 0);
  ScriptedRunner& runner = *runner_;
  std::vector<u32> resolved_indices;
  s.hooks().resolve = [&](const PointRun& p) {
    for (const auto& [sub, index] : p.waiters) {
      resolved_indices.push_back(index);
    }
  };
  Submission& sub = s.add_submission(1, "grid", points, false, false);
  EXPECT_EQ(sub.deduped, 1u);
  s.step(0);
  ASSERT_EQ(runner.started.size(), 2u) << "three points, two keys";
  for (const ScriptedRunner::Started& st : runner.started) {
    runner.succeed(st.slot, "payload|" + st.name);
  }
  EXPECT_EQ(s.step(1), std::vector<u64>{1});
  EXPECT_EQ(s.stats().executed, 2u);
  EXPECT_EQ(s.stats().dedupe_hits, 1u);
  EXPECT_FALSE(sub.payloads[0].empty());
  EXPECT_EQ(sub.payloads[0], sub.payloads[2]);
  EXPECT_NE(sub.payloads[0], sub.payloads[1]);
  EXPECT_EQ(resolved_indices.size(), 3u) << "every index is resolved";
  expect_books_close(s);
}

/// Queued points borrow the submitter's grid instead of copying it. A
/// handed-over grid lives in the Submission until every point it queued
/// has resolved; a cancelled first submitter keeps it for the waiters its
/// point still serves.
TEST_F(SchedulerTest, HandedOverGridOutlivesEveryRunThatBorrowsIt) {
  PointScheduler& s = make(1, 3, 10);
  ScriptedRunner& runner = *runner_;
  Submission& a = submit(1, {"shared", "own"});
  Submission& b = submit(2, {"shared"});
  EXPECT_EQ(a.grid.size(), 2u);
  EXPECT_EQ(b.grid.size(), 1u);  // kept, though nothing borrows from it

  EXPECT_EQ(s.cancel(1), 1u);  // "own" dropped; "shared" serves b
  EXPECT_TRUE(s.step(0).empty());
  ASSERT_EQ(runner.started.size(), 1u);
  EXPECT_EQ(runner.started[0].name, "shared");  // read through a's grid
  runner.succeed(runner.started[0].slot, "ran-shared");
  EXPECT_EQ(s.step(1), std::vector<u64>{2});
  EXPECT_EQ(b.payloads[0], "ran-shared");
  EXPECT_TRUE(b.grid.empty());   // complete: released
  EXPECT_EQ(a.grid.size(), 2u);  // cancelled: kept
  expect_books_close(s);

  store_result("hit", "stored-hit");
  Submission& c = submit(3, {"hit"});
  EXPECT_TRUE(c.complete());
  EXPECT_TRUE(c.grid.empty());  // every point answered by the store
}

/// A released cancelled submission stays while a queued point still reads
/// its grid, and goes with the step that resolves that point.
TEST_F(SchedulerTest, ReleasedCancelledSubmissionWaitsForItsBorrowers) {
  PointScheduler& s = make(1, 3, 10);
  ScriptedRunner& runner = *runner_;
  submit(1, {"shared"});
  submit(2, {"shared"});
  EXPECT_EQ(s.cancel(1), 0u);
  s.release(1);
  EXPECT_NE(s.find(1), nullptr) << "the queued point reads 1's grid";
  s.step(0);
  ASSERT_EQ(runner.started.size(), 1u);
  EXPECT_EQ(runner.started[0].name, "shared");
  runner.succeed(0, "ran-shared");
  EXPECT_EQ(s.step(1), std::vector<u64>{2});
  EXPECT_EQ(s.find(1), nullptr) << "erased once its borrower resolved";
  EXPECT_EQ(s.find(2)->payloads[0], "ran-shared");
  s.release(2);
  EXPECT_TRUE(s.submissions().empty());
  expect_books_close(s);
}

/// A long-running daemon releases each submission once it has answered
/// it: 1,000 sequential submissions (every tenth cancelled mid-run) leave
/// the scheduler holding only the live ones.
TEST_F(SchedulerTest, ThousandSequentialSubmissionsStayBounded) {
  PointScheduler& s = make(2, 3, 0);
  ScriptedRunner& runner = *runner_;
  size_t most = 0;
  double t = 0;
  for (u64 id = 1; id <= 1000; ++id) {
    const std::string n = std::to_string(id);
    submit(id, {"a" + n, "b" + n, "c" + n});
    if (id % 10 == 0) {
      s.step(t++);  // two points start, then the submission is cancelled
      EXPECT_EQ(s.cancel(id), 1u);
      s.release(id);
    }
    std::vector<u64> done;
    while (!s.idle()) {
      for (const ScriptedRunner::Started& st : runner.started) {
        runner.succeed(st.slot, st.name);
      }
      runner.started.clear();
      for (const u64 c : s.step(t++)) done.push_back(c);
      most = std::max(most, s.submissions().size());
    }
    for (const u64 c : done) s.release(c);
    ASSERT_TRUE(s.submissions().empty()) << "after submission " << id;
  }
  EXPECT_LE(most, 1u);
  EXPECT_EQ(s.stats().submissions_accepted, 1000u);
  expect_books_close(s);
}

}  // namespace
}  // namespace fg::api
