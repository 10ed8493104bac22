// PointScheduler: the one point scheduler behind `fgsim campaign` and
// `fgsim serve`.
//
// Submissions are lists of grid points keyed by their canonical result_key.
// Each point is answered by the cheapest tier that can answer it:
//  * Store: a point whose key the ResultStore already holds is answered at
//    submit time (the driver consults the store; this class only records
//    the hit).
//  * In-flight dedupe: a point whose key is already pending, running or in
//    retry backoff — from another submission or from the same grid — is not
//    queued again; it attaches as a waiter and the one execution answers
//    every waiter.
//  * Execution: the rest run through an AttemptRunner, with bounded retry
//    and exponential backoff.
//
// Scheduling is a work-stealing round-robin over per-submission backlogs:
// each idle worker slot takes the next ready point from the next submission
// with pending work, so one giant submission cannot starve a small one. A
// slot that crosses from one submission to another counts as a steal (a
// fleet-debuggability counter, not a correctness knob).
//
// Threading: the scheduler and its hooks run on the driver's thread only;
// an AttemptRunner may execute attempts elsewhere (forked workers, pool
// threads) but hands results back through reap() on the driver's thread.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/spec.h"
#include "src/store/faultfs.h"
#include "src/store/result_store.h"

namespace fg::api {

/// Steady-clock milliseconds: the scheduler's time base.
double now_ms();

struct SchedulerStats {
  u64 submissions_accepted = 0;
  u64 submissions_completed = 0;
  u64 submissions_cancelled = 0;
  u64 submissions_replayed = 0;  // journal-recovered on daemon start
  u64 points_submitted = 0;      // across submissions, duplicates included
  u64 store_hits = 0;            // answered straight from the ResultStore
  u64 dedupe_hits = 0;           // attached to an in-flight execution
  u64 executed = 0;              // fresh executions that published an entry
  u64 retries = 0;
  u64 timeouts = 0;  // watchdog kills (a subset of retries/failures)
  u64 failed_points = 0;
  /// Pending points dropped by cancel before any execution. Closes the
  /// books: points_submitted == store_hits + dedupe_hits + executed +
  /// failed_points + cancelled_points + in-flight (queue depth + running).
  u64 cancelled_points = 0;
  u64 steals = 0;  // worker slots that crossed submissions
};

enum class PointState : u8 { kPending, kRunning, kBackoff, kDone, kFailed };

/// One unique in-flight point: the unit of execution and of dedupe.
struct PointRun {
  /// The canonical result_key — the identity; points at the scheduler's
  /// one copy (the map key), since a key is a whole canonical spec.
  const std::string* key = nullptr;
  /// The first submitter's concrete spec, borrowed from its grid (which
  /// outlives the run: a campaign keeps its grid, and the daemon's
  /// Submission keeps the expanded one until all its points resolve).
  const GridPoint* point = nullptr;
  bool with_baseline = true;
  PointState state = PointState::kPending;
  u32 attempts = 0;      // begun executions
  double ready_ms = 0;   // backoff gate (now_ms() time base); 0 = now
  /// The first submitter's grid index: the N of FG_FAULT ...@point:N and
  /// the index a campaign journals the attempts under.
  u32 index = 0;
  u64 sub = 0;           // submission the current attempt was taken for
  std::string why;       // failure slug after attempts exhaust
  /// (submission id, point index within that submission).
  std::vector<std::pair<u64, u32>> waiters;
};

struct Submission {
  u64 id = 0;
  std::string name;
  bool replayed = false;   // recovered from the daemon's submission journal
  bool cancelled = false;
  /// Daemon-side: journal removed + completion counted + waiters answered.
  bool finalized = false;
  size_t n_points = 0;
  size_t done = 0;         // resolved points (store hit or executed)
  size_t failed = 0;
  size_t from_store = 0;   // answered from the ResultStore at submit time
  size_t deduped = 0;      // attached to an in-flight execution
  /// Stored outcome payloads in grid order ("" until resolved / on failure).
  std::vector<std::string> payloads;
  /// The expanded grid, when the submitter handed it over (the daemon);
  /// empty when the submitter keeps its own (a campaign). Released once the
  /// submission completes.
  std::vector<GridPoint> grid;

  bool complete() const { return done + failed >= n_points; }
};

/// One finished attempt, as an AttemptRunner reports it.
struct AttemptResult {
  u32 slot = 0;
  bool ok = false;         // a validated entry is in the store
  bool timed_out = false;  // killed by the watchdog
  std::string payload;     // the stored payload when ok
  std::string why;         // failure slug otherwise
};

/// How point attempts execute. The scheduler owns the worker slots; a
/// runner executes one attempt per busy slot and reports it once finished.
class AttemptRunner {
 public:
  virtual ~AttemptRunner() = default;
  /// Begin attempt `p.attempts - 1` of `p` in worker slot `slot`. False with
  /// *why when the attempt could not start (it then counts as failed).
  virtual bool start(u32 slot, const PointRun& p, double now_ms,
                     std::string* why) = 0;
  /// Append the attempts that finished since the last call to *done.
  virtual void reap(double now_ms, std::vector<AttemptResult>* done) = 0;
  /// Block until an attempt may have finished, for at most `max_ms`.
  virtual void wait(double max_ms) = 0;
  /// Append the fds that turn readable when a running attempt finishes, for
  /// a driver that sleeps in its own poll(); none when finishing attempts
  /// wake nothing pollable.
  virtual void wake_fds(std::vector<int>* /*fds*/) const {}
  /// The nearest watchdog deadline of a running attempt (now_ms() time
  /// base), 0 when none is armed: reap() must run by then.
  virtual double next_deadline_ms() const { return 0.0; }
  /// Abandon every running attempt and stop any idle workers (a stopping
  /// daemon, a finished campaign).
  virtual void stop() {}
};

/// One point attempt as a forked worker receives it. The point travels as
/// its spec JSON: a worker forked before the submission arrived shares
/// none of its memory.
struct WorkerJob {
  GridPoint point;
  std::string key;
  bool with_baseline = true;
  u32 index = 0;
  u32 attempts = 0;
  /// The parent's faultfs op ordinals when the attempt starts.
  store::FaultOps fault_ops{};
};

/// The job for attempt `p.attempts - 1` of `p` as one line of JSON (no
/// trailing newline), and back.
std::string encode_worker_job(const PointRun& p, const store::FaultOps& ops);
bool decode_worker_job(const std::string& line, WorkerJob* out);

#if !defined(_WIN32)
/// Attempts run in long-lived forked workers, one per scheduler slot,
/// forked on the slot's first start(). A worker reads jobs from a socket,
/// installs the job's faultfs op ordinals, simulates, publishes and replies
/// with one line; it stays alive only after a successful attempt. Any
/// failure hard-exits it (or the parent kills it), so the parent reaps and
/// classifies every failure by its wait status, and the slot's next
/// attempt forks a fresh worker. The parent SIGKILLs a worker past
/// `timeout_s` (0 = no watchdog) and asks the store whether the attempt
/// published: the store, not the worker's reply, decides success.
/// `in_child` runs once in every worker, right after its fork (the daemon
/// closes its sockets).
std::unique_ptr<AttemptRunner> fork_attempt_runner(
    store::ResultStore* store, double timeout_s,
    std::function<void()> in_child = {});
#endif

/// Each attempt runs on one of `threads` pool threads in this process: no
/// crash isolation and no watchdog (an in-process hang cannot be safely
/// interrupted). A finished attempt wakes wait() directly.
std::unique_ptr<AttemptRunner> thread_attempt_runner(store::ResultStore* store,
                                                     u32 threads);

class PointScheduler {
 public:
  /// Driver callbacks, run on the driver's thread inside step().
  struct Hooks {
    /// An attempt of `p` begins (its 0-based number is p.attempts - 1).
    std::function<void(const PointRun& p)> begin;
    /// An attempt of `p` failed and another follows after the backoff.
    std::function<void(const PointRun& p, bool timed_out)> retry;
    /// `p` is resolved for good (state kDone, or kFailed with p.why); its
    /// waiters are answered right after.
    std::function<void(const PointRun& p)> resolve;
  };

  /// `workers` slots (at least 1) run attempts through `runner`; `store`
  /// answers the points it already holds.
  PointScheduler(store::ResultStore* store,
                 std::unique_ptr<AttemptRunner> runner, u32 workers,
                 u32 max_attempts, u64 backoff_ms);

  Hooks& hooks() { return hooks_; }

  /// Register a submission whose grid is already expanded. Each point is
  /// keyed by result_key(spec, with_baseline); the store answers the keys
  /// it holds (payload recorded, no execution), and the rest join the
  /// queue or attach to an in-flight point with the same key. The queued
  /// points are borrowed, not copied: `points` must outlive the scheduler.
  Submission& add_submission(u64 id, const std::string& name,
                             const std::vector<GridPoint>& points,
                             bool with_baseline, bool replayed);
  /// As above, with the grid kept in the Submission itself until the
  /// submission completes.
  Submission& add_submission(u64 id, const std::string& name,
                             std::vector<GridPoint>&& points,
                             bool with_baseline, bool replayed);

  /// Reap finished attempts, then launch ready points into idle slots.
  /// Returns the submissions this step completed.
  std::vector<u64> step(double now_ms);

  /// Block until step() may have work: an attempt finishing or a backoff
  /// gate opening.
  void wait(double now_ms);

  /// Cancel a submission: detach it from its pending points (a point with
  /// no waiters left is dropped from the queue; running points finish and
  /// publish — the store keeps the work). Returns pending points dropped,
  /// or SIZE_MAX for an unknown id.
  size_t cancel(u64 id);

  /// Kill every running attempt (their points stay unresolved) and stop
  /// the idle workers.
  void stop() { runner_->stop(); }

  /// Forget a finished (complete or cancelled) submission once the driver
  /// has answered its waiters, so a long-running daemon holds only live
  /// work. A cancelled submission whose grid a surviving point still
  /// borrows is erased by the step() that resolves that point.
  void release(u64 id);

  Submission* find(u64 id);
  const std::map<u64, Submission>& submissions() const { return subs_; }

  /// The earliest backoff gate among pending points (0 when none are
  /// gated) — a driver's sleep hint.
  double next_ready_ms() const;
  /// The runner's nearest watchdog deadline (0 when none) — the other
  /// sleep hint while attempts run.
  double next_deadline_ms() const { return runner_->next_deadline_ms(); }
  /// The fds a driver's poll() waits on for finishing attempts.
  void wake_fds(std::vector<int>* fds) const { runner_->wake_fds(fds); }
  /// Pending points not yet running (the queue depth the stats report).
  size_t queue_depth() const;
  size_t running() const { return running_; }
  bool idle() const { return queue_depth() == 0 && running_ == 0; }
  u32 workers() const { return static_cast<u32>(slots_.size()); }
  /// The point running in worker slot `slot`, or nullptr when it is idle.
  const PointRun* slot_point(u32 slot) const { return slots_[slot].run; }

  SchedulerStats& stats() { return stats_; }
  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Slot {
    PointRun* run = nullptr;  // the running point; nullptr = idle
    u64 last_sub = 0;         // for the steal counter
  };

  PointRun* take_next(double now_ms, u64 last_sub);
  void fail_attempt(PointRun* p, const std::string& why, bool timed_out,
                    double now_ms, std::vector<u64>* completed);
  void resolve_waiters(PointRun* p, const std::string& payload,
                       std::vector<u64>* completed);
  /// Erase the released submissions no point borrows from any more.
  void erase_released();

  store::ResultStore* store_;
  std::unique_ptr<AttemptRunner> runner_;
  u32 max_attempts_;
  u64 backoff_ms_;
  Hooks hooks_;
  std::vector<Slot> slots_;
  std::map<u64, Submission> subs_;
  std::vector<u64> released_;  // released, erase once nothing borrows
  std::map<std::string, PointRun> points_;  // key → the one in-flight run
  /// Per-submission backlog of pending points not yet handed to a worker,
  /// plus the round-robin cursor over submission ids.
  std::map<u64, std::deque<PointRun*>> backlog_;
  /// Points in retry backoff, scanned before the backlog.
  std::vector<PointRun*> backoff_;
  u64 rr_cursor_ = 0;
  size_t running_ = 0;
  SchedulerStats stats_;
};

}  // namespace fg::api
