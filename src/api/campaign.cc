#include "src/api/campaign.h"

#include "src/api/scheduler.h"
#include "src/common/thread_pool.h"
#include "src/soc/config_json.h"

namespace fg::api {

std::string result_key(const ExperimentSpec& spec, bool with_baseline) {
  // Baseline attachment is part of the key: it changes the stored payload
  // (baseline_cycles / slowdown), so the same spec with and without the
  // baseline must not alias. For mode == baseline specs the flag is inert;
  // normalize it out so both settings share one entry.
  const bool b = with_baseline && spec.mode != Mode::kBaseline;
  return std::string("fireguard/outcome/v1|baseline=") + (b ? "1" : "0") +
         "|" + spec_canonical(spec);
}

std::string baseline_key(const ExperimentSpec& spec) {
  return "fireguard/baseline/v1|" +
         soc::baseline_subspec_json(spec.workload, spec.soc);
}

std::string campaign_hash(const ExperimentSpec& spec, bool with_baseline) {
  const bool b = with_baseline && spec.mode != Mode::kBaseline;
  return store::hash_hex(std::string("fireguard/campaign/v1|baseline=") +
                         (b ? "1" : "0") + "|" + spec_canonical(spec));
}

std::string outcome_payload(RunOutcome o) {
  // Zero the fields that depend on the machine and the moment rather than
  // the spec: wall clock, and the invariant-counter deltas (process-global,
  // so multi-worker runs attribute them arbitrarily). What remains is a
  // pure function of the spec — the property the bit-identical-resume
  // guarantee rests on.
  o.wall_ms = 0.0;
  o.snapshot.invariant_checks = 0;
  o.snapshot.invariant_violations = 0;
  return outcome_json(o, 0);
}

CampaignRunner::CampaignRunner(ExperimentSpec spec, CampaignConfig cfg)
    : spec_(std::move(spec)), cfg_(cfg) {}

std::string CampaignRunner::point_key(u32 index) const {
  return result_key(points_[index].spec, cfg_.with_baseline);
}

bool CampaignRunner::init(std::string* err) {
  if (inited_) return true;
  if (cfg_.store_dir.empty()) {
    if (err) *err = "campaign: store directory not set";
    return false;
  }
  if (!expand_grid(spec_, &points_, err)) return false;
  payloads_.assign(points_.size(), "");
  stats_ = {};
  stats_.points = points_.size();
  workers_ = ThreadPool::cap_jobs(cfg_.jobs);
  if (!store_.open(cfg_.store_dir, err)) return false;
  const std::string hash = campaign_hash(spec_, cfg_.with_baseline);
  if (!journal_.open(store_.campaigns_dir() + "/" + hash + ".journal", hash,
                     points_.size(), err)) {
    return false;
  }
  inited_ = true;
  return true;
}

void CampaignRunner::emit(u32 index, u32 attempt, const char* what) {
  if (!event_fn_) return;
  Event ev;
  ev.index = index;
  ev.attempt = attempt;
  ev.what = what;
  ev.completed = completed_;
  ev.total = points_.size();
  event_fn_(ev);
}

bool CampaignRunner::run(std::string* err) {
  if (!inited_ && !init(err)) return false;
  std::unique_ptr<AttemptRunner> attempts;
#if !defined(_WIN32)
  if (cfg_.isolate) {
    attempts = fork_attempt_runner(&store_, cfg_.point_timeout_s);
  }
#endif
  if (!attempts) attempts = thread_attempt_runner(&store_, workers_);
  PointScheduler sched(&store_, std::move(attempts), workers_,
                       cfg_.max_attempts, cfg_.backoff_ms);
  sched.hooks().begin = [this](const PointRun& p) {
    journal_.record_begin(p.index, p.attempts - 1);
  };
  sched.hooks().retry = [this](const PointRun& p, bool timed_out) {
    emit(p.index, p.attempts - 1, timed_out ? "timeout" : "retry");
  };
  sched.hooks().resolve = [this](const PointRun& p) {
    const bool done = p.state == PointState::kDone;
    for (const auto& [sub, index] : p.waiters) {
      if (done) {
        journal_.record_done(index, /*cached=*/false);
      } else {
        journal_.record_failed(index, p.why);
      }
      ++completed_;
      emit(index, p.attempts - 1,
           !done ? "fail" : index == p.index ? "run" : "dedupe");
    }
  };

  // The store answers what it already holds (dedupe across campaigns and
  // resume); the scheduler runs the rest.
  Submission& sub = sched.add_submission(1, spec_.name, points_,
                                         cfg_.with_baseline, false);
  for (u32 i = 0; i < points_.size(); ++i) {
    if (sub.payloads[i].empty()) continue;
    ++completed_;
    if (!journal_.points()[i].done) journal_.record_done(i, /*cached=*/true);
    emit(i, 0, "cache");
  }
  while (!sched.idle()) {
    sched.step(now_ms());
    if (!sched.idle()) sched.wait(now_ms());
  }

  const SchedulerStats& st = sched.stats();
  stats_.from_store = sub.from_store;
  stats_.deduped = sub.deduped;
  stats_.executed = st.executed;
  stats_.retries = st.retries;
  stats_.timeouts = st.timeouts;
  stats_.failed = st.failed_points;
  payloads_ = std::move(sub.payloads);
  return true;
}

}  // namespace fg::api
