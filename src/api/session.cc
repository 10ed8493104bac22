#include "src/api/session.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>

#include "src/baseline/instrument.h"
#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/common/thread_pool.h"
#include "src/soc/experiment.h"

namespace fg::api {

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

std::vector<GridPoint> expand_or_die(const ExperimentSpec& spec) {
  std::vector<GridPoint> points;
  std::string err;
  FG_CHECK(expand_grid(spec, &points, &err) && "invalid sweep axis");
  return points;
}

}  // namespace

RunOutcome run_spec(const ExperimentSpec& spec) {
  const u64 checks0 = inv::checks();
  const u64 viol0 = inv::violations();

  RunOutcome out;
  out.name = spec.name;
  const double t0 = now_ms();

  if (spec.mode == Mode::kFireguard) {
    out.result = soc::run_fireguard(
        spec.workload, spec.soc, [&](const soc::Soc& soc, u64 planned) {
          out.snapshot = snapshot_of(soc, planned);
        });
  } else {
    std::optional<baseline::SwScheme> scheme;
    if (spec.mode == Mode::kSoftware) scheme = spec.scheme;
    out.result = soc::run_bare_core(spec.workload, spec.soc, scheme);
    out.snapshot.cycles = out.result.cycles;
    out.snapshot.total_cycles = out.result.cycles;
    out.snapshot.committed = out.result.committed;
  }

  out.wall_ms = now_ms() - t0;
  out.snapshot.invariant_checks = inv::checks() - checks0;
  out.snapshot.invariant_violations = inv::violations() - viol0;
  out.executed = true;
  return out;
}

RunOutcome PointExecutor::execute(const GridPoint& p) {
  RunOutcome out = run_spec(p.spec);
  if (with_baseline_ && p.spec.mode != Mode::kBaseline) {
    const double b0 = now_ms();
    bool ran_baseline = false;
    if (hooks_.lookup && hooks_.lookup(p.spec, &out.baseline_cycles)) {
      // Served by the durable layer: nothing simulated, nothing to charge.
    } else {
      out.baseline_cycles =
          cache_.get(p.spec.workload, p.spec.soc, &ran_baseline);
      // Only the point that actually ran the baseline is charged for it.
      if (ran_baseline) {
        out.wall_ms += now_ms() - b0;
        if (hooks_.publish) hooks_.publish(p.spec, out.baseline_cycles);
      }
    }
    out.slowdown = static_cast<double>(out.result.cycles) /
                   static_cast<double>(std::max<Cycle>(1, out.baseline_cycles));
  }
  return out;
}

SimSession::SimSession(const ExperimentSpec& spec, SessionConfig cfg)
    : SimSession(expand_or_die(spec), cfg) {}

SimSession::SimSession(std::vector<GridPoint> points, SessionConfig cfg)
    : points_(std::move(points)), executor_(cfg.with_baseline) {
  results_.resize(points_.size());
  workers_ = ThreadPool::cap_jobs(cfg.jobs);
}

RunOutcome SimSession::execute(u32 index) {
  RunOutcome out = executor_.execute(points_[index]);
  if (progress_) {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++completed_;
    Progress ev;
    ev.index = index;
    ev.total = points_.size();
    ev.completed = completed_;
    ev.outcome = &out;
    progress_(ev);
  }
  return out;
}

const RunOutcome& SimSession::run() {
  FG_CHECK(!points_.empty() && "run() on an empty session");
  if (!results_.front().executed) results_.front() = execute(0);
  return results_.front();
}

const std::vector<RunOutcome>& SimSession::run_all() {
  if (ran_) return results_;
  const double t0 = now_ms();
  std::vector<u32> todo;  // run() may have executed a point already
  todo.reserve(points_.size());
  for (u32 i = 0; i < points_.size(); ++i) {
    if (!results_[i].executed) todo.push_back(i);
  }
  if (workers_ <= 1 || todo.size() <= 1) {
    for (const u32 i : todo) results_[i] = execute(i);
  } else {
    ThreadPool pool(workers_);
    std::vector<std::future<RunOutcome>> futures;
    futures.reserve(todo.size());
    for (const u32 i : todo) {
      futures.push_back(pool.submit([this, i] { return execute(i); }));
    }
    // Collected in grid order: results are stable regardless of which
    // worker finished first.
    for (size_t k = 0; k < todo.size(); ++k) {
      results_[todo[k]] = futures[k].get();
    }
  }
  wall_ms_ = now_ms() - t0;
  ran_ = true;
  return results_;
}

std::string outcome_json(const RunOutcome& o, int indent) {
  using json::Value;
  Value v = Value::object();
  v.set("schema", Value::of_str("fireguard/outcome/v1"));
  v.set("name", Value::of_str(o.name));
  v.set("cycles", Value::of(o.result.cycles));
  v.set("committed", Value::of(o.result.committed));
  v.set("ipc", Value::of_double(o.result.ipc));
  v.set("baseline_cycles", Value::of(o.baseline_cycles));
  v.set("slowdown", Value::of_double(o.slowdown));
  v.set("packets", Value::of(o.result.packets));
  v.set("spurious", Value::of(o.result.spurious));
  v.set("planned_attacks", Value::of(o.result.planned_attacks));
  v.set("attacks_detected",
        Value::of(static_cast<u64>(o.result.detections.size())));
  double worst_ns = 0.0;
  for (const soc::DetectionRecord& d : o.result.detections) {
    worst_ns = std::max(worst_ns, d.latency_ns);
  }
  v.set("worst_latency_ns", Value::of_double(worst_ns));
  Value stalls = Value::array();
  for (const double f : o.result.stall_fractions) {
    stalls.push(Value::of_double(f));
  }
  v.set("stall_fractions", std::move(stalls));
  v.set("expansion", Value::of_double(o.result.expansion));
  Value sched = Value::object();
  sched.set("cycles_stepped", Value::of(o.result.sched.cycles_stepped));
  sched.set("cycles_skipped", Value::of(o.result.sched.cycles_skipped));
  sched.set("skips", Value::of(o.result.sched.skips));
  sched.set("slow_ticks_run", Value::of(o.result.sched.slow_ticks_run));
  sched.set("slow_ticks_skipped",
            Value::of(o.result.sched.slow_ticks_skipped));
  v.set("sched", std::move(sched));
  v.set("wall_ms", Value::of_double(o.wall_ms));
  std::string out = json::dump(v, indent);
  // Splice in the snapshot via its canonical serializer (one authoritative
  // snapshot writer in snapshot.cc).
  FG_CHECK(out.size() >= 2 && out.back() == '}');
  out.erase(out.size() - (indent > 0 ? 2 : 1));  // drop "\n}" / "}"
  out += indent > 0 ? ",\n" : ", ";
  out += indent > 0 ? std::string(static_cast<size_t>(indent), ' ') : "";
  out += "\"snapshot\":\n" + snapshot_json(o.snapshot, indent) + "\n}";
  return out;
}

}  // namespace fg::api
