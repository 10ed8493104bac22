// Resumable, crash-safe experiment campaigns.
//
// A campaign is a sweep grid executed against a durable content-addressed
// ResultStore: every point's outcome is published under the hash of its
// canonical spec, so a campaign killed at any instant — SIGKILL, OOM, power
// cut — resumes by rerunning `fgsim campaign` with the same spec and store:
// published points are served from disk (zero re-simulation) and only the
// missing ones execute. The final result set is bit-identical to an
// uninterrupted run because stored payloads contain only the deterministic
// portion of an outcome (wall clock and invariant diagnostics are zeroed).
//
// Failure tolerance, by layer:
//  * Point isolation (default on POSIX): points run in long-lived forked
//    workers, one per job slot, so a crashing or hanging simulation costs
//    one attempt and its worker, not the campaign (the slot forks a fresh
//    worker). A per-point wall-clock watchdog SIGKILLs hung workers; the
//    cycle budget (`soc.max_fast_cycles`) bounds runaway simulations from
//    the inside.
//  * Bounded retry with exponential backoff: a failed/killed/timed-out
//    attempt is retried up to max_attempts, then recorded as a failed
//    point (the campaign completes; `fgsim campaign` exits nonzero).
//  * Durable publishes are atomic and checksummed (see result_store.h), so
//    a kill mid-publish can never leave a half-written entry that a resume
//    would load.
//  * The append-only journal (store/<campaigns>/<hash>.journal) tracks
//    attempts and failures across resumes; a torn final line — the worst a
//    SIGKILL can do to it — is tolerated by the loader.
//
// A campaign is one submission on an api::PointScheduler (scheduler.h), the
// same scheduler `fgsim serve` runs behind its socket: store hits first,
// then in-flight dedupe (two grid points with one key — a repeated sweep
// value — execute once), then forked or in-process attempts.
//
// Every recovery path above is exercised by fault injection (FG_FAULT, see
// store/faultfs.h) in tests/campaign_test.cc rather than trusted.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/store/journal.h"
#include "src/store/result_store.h"

namespace fg::api {

struct CampaignConfig {
  std::string store_dir;
  /// Concurrent points: forked workers (isolate) or worker threads
  /// (in-process). 0 = FG_JOBS env, else the usable CPUs; either way capped
  /// at the usable CPUs (ThreadPool::cap_jobs).
  u32 jobs = 0;
  /// Attempts per point per campaign invocation (first try + retries).
  u32 max_attempts = 3;
  /// Per-point wall-clock watchdog in seconds; 0 disables. Only enforceable
  /// in isolate mode (an in-process hang cannot be safely interrupted).
  double point_timeout_s = 0.0;
  /// Base retry backoff, doubled per subsequent attempt.
  u64 backoff_ms = 50;
  bool with_baseline = true;
  /// Run attempts in long-lived forked workers (crash/hang isolation).
  /// Ignored on platforms without fork.
  bool isolate = true;
};

/// points == from_store + deduped + executed + failed.
struct CampaignStats {
  size_t points = 0;
  size_t from_store = 0;  // served by the store (dedupe + resume)
  size_t deduped = 0;     // grid points sharing another point's key
  size_t executed = 0;    // simulated by this invocation
  size_t retries = 0;
  size_t timeouts = 0;    // watchdog kills (subset of retries/failures)
  size_t failed = 0;      // executions with no valid result after all attempts
};

/// Content-address key of one concrete point's outcome. `with_baseline` is
/// part of the key because it changes the payload (baseline_cycles /
/// slowdown fields).
std::string result_key(const ExperimentSpec& spec, bool with_baseline);

/// Content-address key of the unmonitored-baseline cycles for a spec (the
/// canonical baseline-relevant sub-spec — the BaselineCache key, made
/// durable).
std::string baseline_key(const ExperimentSpec& spec);

/// 16-hex identity of a whole campaign (full spec incl. sweep axes +
/// baseline policy): names the journal file.
std::string campaign_hash(const ExperimentSpec& spec, bool with_baseline);

/// The durable form of an outcome: canonical one-line outcome JSON with the
/// nondeterministic diagnostics (wall_ms, invariant counter deltas) zeroed,
/// so stored payloads are bit-identical across runs, worker counts, and
/// resume boundaries.
std::string outcome_payload(RunOutcome o);

class CampaignRunner {
 public:
  /// Per-point lifecycle event, for progress reporting. `what` is one of
  /// "cache" (served from store), "run" (executed + published), "dedupe"
  /// (answered by another grid point's execution of the same key),
  /// "retry", "timeout" (watchdog kill), "fail" (attempts exhausted).
  struct Event {
    u32 index = 0;
    u32 attempt = 0;
    const char* what = "";
    size_t completed = 0;
    size_t total = 0;
  };
  using EventFn = std::function<void(const Event&)>;

  CampaignRunner(ExperimentSpec spec, CampaignConfig cfg);

  /// The callback runs on the thread that called run(); keep it short.
  void on_event(EventFn fn) { event_fn_ = std::move(fn); }

  /// Expand the grid, open the store, open/replay the journal. False with
  /// *err on an invalid sweep axis or store/journal I/O failure.
  bool init(std::string* err);

  /// Run every point not already in the store, as one submission on a
  /// PointScheduler. Returns false only on
  /// environment errors (store unusable); per-point failures are counted in
  /// stats().failed and leave that point's payload empty.
  bool run(std::string* err);

  const ExperimentSpec& spec() const { return spec_; }
  const std::vector<GridPoint>& points() const { return points_; }
  /// Stored outcome payloads in grid order ("" for failed points); valid
  /// after run().
  const std::vector<std::string>& payloads() const { return payloads_; }
  const CampaignStats& stats() const { return stats_; }
  store::ResultStore& result_store() { return store_; }
  store::CampaignJournal& journal() { return journal_; }
  u32 workers() const { return workers_; }
  std::string point_key(u32 index) const;

 private:
  void emit(u32 index, u32 attempt, const char* what);

  ExperimentSpec spec_;
  CampaignConfig cfg_;
  u32 workers_ = 1;
  std::vector<GridPoint> points_;
  std::vector<std::string> payloads_;
  CampaignStats stats_;
  store::ResultStore store_;
  store::CampaignJournal journal_;
  EventFn event_fn_;
  size_t completed_ = 0;
  bool inited_ = false;
};

}  // namespace fg::api
