// SimSession: the façade that turns a declarative ExperimentSpec into
// structured results.
//
// Construct from a spec, then either `run()` the single experiment
// synchronously or `run_all()` the sweep grid (the spec's axes expanded as
// a cross product) across the shared ThreadPool. A session can also be
// built from a ready point list — the figure grids the bench binaries and
// `fgsim speed` assemble in code. Every point produces a
// RunOutcome: the all-integer StatSnapshot (bit-exact, JSON-exportable),
// the derived RunResult metrics (IPC, stall fractions, detection
// latencies, SchedStats), and — unless disabled — the unmonitored baseline
// cycles and slowdown, memoized across the grid by the session's
// BaselineCache, which keys on the canonical serialized baseline-relevant
// sub-spec.
//
// Determinism contract: a point's outcome depends only on its spec, never
// on worker count or completion order — `run_all()` with 8 jobs is
// bit-identical to jobs=1, and the FireGuard path is bit-identical to the
// legacy run_fireguard() free function for the same workload/SoC pair.
#pragma once

#include <functional>
#include <mutex>

#include "src/api/snapshot.h"
#include "src/api/spec.h"

namespace fg::api {

struct RunOutcome {
  std::string name;
  soc::RunResult result;   // derived metrics (doubles, latencies, sched)
  StatSnapshot snapshot;   // all-integer semantics (bit-identity unit)
  Cycle baseline_cycles = 0;
  double slowdown = 0.0;   // 0 when the baseline was not run
  double wall_ms = 0.0;    // this point's own simulation wall clock
  bool executed = false;
};

/// Per-point completion event (sweep progress reporting).
struct Progress {
  u32 index = 0;   // grid index, in expansion order
  size_t total = 0;
  size_t completed = 0;  // points finished so far, this one included
  const RunOutcome* outcome = nullptr;
};

struct SessionConfig {
  /// Worker threads for run_all: 0 = FG_JOBS env, else the usable CPUs;
  /// either way capped at the usable CPUs (ThreadPool::cap_jobs).
  u32 jobs = 0;
  /// Run the unmonitored baseline (memoized) and fill slowdown. Ignored
  /// for mode == baseline specs, whose run IS the baseline.
  bool with_baseline = true;
};

/// The execution half of the session: turns ONE concrete grid point into a
/// RunOutcome (run_spec + the memoized baseline / slowdown policy).
/// Orchestrators — SimSession's in-memory grid loop, the campaign runner's
/// durable queue, the `fgsim serve` daemon — decide WHAT to run and
/// what to do with the outcome; this class owns HOW a point becomes one.
/// Stateless across points except for the baseline cache, so one executor
/// is shared by all workers of a run (it is thread-safe).
class PointExecutor {
 public:
  explicit PointExecutor(bool with_baseline = true)
      : with_baseline_(with_baseline) {}

  /// Durable baseline layer hooks (the campaign runner wires these to the
  /// content-addressed store): `lookup` is consulted before the in-memory
  /// cache; `publish` is called after this executor computed a baseline.
  struct BaselineHooks {
    std::function<bool(const ExperimentSpec&, Cycle*)> lookup;
    std::function<void(const ExperimentSpec&, Cycle)> publish;
  };
  void set_baseline_hooks(BaselineHooks hooks) { hooks_ = std::move(hooks); }

  /// Simulate the point and, per policy, attach baseline cycles + slowdown.
  RunOutcome execute(const GridPoint& p);

  bool with_baseline() const { return with_baseline_; }
  soc::BaselineCache& baseline_cache() { return cache_; }

 private:
  bool with_baseline_;
  soc::BaselineCache cache_;
  BaselineHooks hooks_;
};

class SimSession {
 public:
  /// Expands the sweep grid eagerly; FG_CHECKs on an invalid axis (validate
  /// specs with expand_grid first for a recoverable error).
  explicit SimSession(const ExperimentSpec& spec, SessionConfig cfg = {});
  /// Runs an already-expanded point list, in the given order.
  explicit SimSession(std::vector<GridPoint> points, SessionConfig cfg = {});

  using ProgressFn = std::function<void(const Progress&)>;
  /// Registers a progress callback, invoked once per completed point under
  /// an internal mutex (callbacks run on worker threads; keep them short).
  void on_progress(ProgressFn fn) { progress_ = std::move(fn); }

  const std::vector<GridPoint>& points() const { return points_; }
  size_t n_points() const { return points_.size(); }

  /// Run the first (for a sweep-free spec: the only) point synchronously.
  const RunOutcome& run();

  /// Run the whole grid; results in grid order, independent of jobs.
  /// Idempotent: a second call returns the cached results.
  const std::vector<RunOutcome>& run_all();

  const std::vector<RunOutcome>& results() const { return results_; }
  soc::BaselineCache& baseline_cache() { return executor_.baseline_cache(); }
  /// Worker threads run_all uses: the requested jobs capped at the usable
  /// CPUs (results never depend on it).
  u32 workers() const { return workers_; }
  /// Whole-grid wall clock of run_all in milliseconds.
  double wall_ms() const { return wall_ms_; }

 private:
  RunOutcome execute(u32 index);

  u32 workers_ = 1;
  std::vector<GridPoint> points_;
  std::vector<RunOutcome> results_;
  bool ran_ = false;
  double wall_ms_ = 0.0;
  PointExecutor executor_;
  ProgressFn progress_;
  std::mutex progress_mu_;
  size_t completed_ = 0;
};

/// The one shared run path under every front-end (SimSession — and with it
/// `fgsim run` / `sweep`, the bench binaries and `fgsim speed` — the fuzz
/// driver's scenario runner, the golden corpus): simulate
/// `spec` to completion under the CURRENT scheduler mode and freeze the
/// outcome. Baseline cycles/slowdown are NOT attached (that is session
/// policy); invariant-counter deltas for the run are. Those deltas come
/// from process-global counters: exact for serial runs (the fuzzer, the
/// golden corpus, `run()`), but in a multi-worker `run_all()` concurrent
/// points share the counters — treat them as run-wide diagnostics there,
/// not per-point attribution (they are excluded from snapshot equality
/// either way).
RunOutcome run_spec(const ExperimentSpec& spec);

/// JSON export of an outcome: derived metrics + the full snapshot.
std::string outcome_json(const RunOutcome& o, int indent = 2);

}  // namespace fg::api
