#include "src/api/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "src/api/campaign.h"
#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/thread_pool.h"
#include "src/store/faultfs.h"

#if !defined(_WIN32)
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fg::api {

namespace {

/// Longest a driver sleeps with nothing running (a backoff gate's wait).
constexpr double kMaxWaitMs = 20.0;

u64 backoff_for(u64 base_ms, u32 attempt) {
  return base_ms << std::min<u32>(attempt, 10);
}

void sleep_ms(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Baseline memoization backed by the store (the durable layer under the
/// in-memory BaselineCache); publishes are best effort.
PointExecutor::BaselineHooks store_baseline_hooks(store::ResultStore* store) {
  PointExecutor::BaselineHooks h;
  h.lookup = [store](const ExperimentSpec& s, Cycle* cycles) {
    std::string payload;
    if (store->get(baseline_key(s), &payload) !=
        store::ResultStore::GetStatus::kHit) {
      return false;
    }
    json::Value v;
    if (!json::parse(payload, &v) || !v.is_object()) return false;
    *cycles = v.get_u64("baseline_cycles", 0);
    return *cycles != 0;
  };
  h.publish = [store](const ExperimentSpec& s, Cycle cycles) {
    json::Value v = json::Value::object();
    v.set("baseline_cycles", json::Value::of(cycles));
    std::string err;
    // Best effort: a failed baseline publish only costs a recompute in some
    // later process, never correctness.
    store->put(baseline_key(s), json::dump(v, 0), &err);
  };
  return h;
}

/// One attempt of `p`: consult the injected point faults (FG_FAULT
/// ...@point:<p.index>), simulate with store-backed baseline memoization,
/// publish under p.key. True when a validated entry is in the store; on
/// failure *why carries a slug. `payload` (optional) receives the payload.
bool execute_point_to_store(const PointRun& p, store::ResultStore* store,
                            std::string* payload, std::string* why) {
  const u32 attempt = p.attempts - 1;
  const u64 fault_index = p.index;
  if (auto f = store::point_fault(fault_index, attempt)) {
    switch (f->kind) {
      case store::FaultKind::kCrash:
        std::fprintf(stderr,
                     "FG_FAULT: injected crash at point %llu attempt %u\n",
                     static_cast<unsigned long long>(fault_index), attempt);
        std::fflush(stderr);
        std::_Exit(store::kFaultCrashExit);
      case store::FaultKind::kHang:
        // In isolate mode the watchdog SIGKILLs us mid-sleep; in-process we
        // just stall, then proceed (no safe way to interrupt a thread).
        sleep_ms(static_cast<double>(f->hang_ms));
        break;
      default:
        *why = "injected_point_fail";
        return false;
    }
  }
  PointExecutor exec(p.with_baseline);
  exec.set_baseline_hooks(store_baseline_hooks(store));
  std::string text = outcome_payload(exec.execute(*p.point));
  std::string err;
  if (!store->put(*p.key, text, &err)) {
    *why = "publish_failed";
    std::fprintf(stderr, "fgsim: point %llu publish failed: %s\n",
                 static_cast<unsigned long long>(fault_index), err.c_str());
    return false;
  }
  if (payload != nullptr) *payload = std::move(text);
  return true;
}

#if !defined(_WIN32)
/// Write all of `text` to a worker socket; false once the peer is gone
/// (MSG_NOSIGNAL: a dead peer is an error, not a SIGPIPE).
bool send_all(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// A forked worker's life: read a job line, run it, reply with an empty
/// line; exit 0 on EOF (the parent closed the socket or died), 13 on a
/// failed attempt.
/// Never returns and never runs a destructor, so the parent's journal,
/// sockets and store stats are untouched.
[[noreturn]] void worker_main(int fd, store::ResultStore* store) {
  std::string buf;
  for (;;) {
    size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        std::_Exit(0);
      }
    }
    bool ok = false;
    try {
      WorkerJob job;
      if (decode_worker_job(buf.substr(0, nl), &job)) {
        store::set_fault_ops(job.fault_ops);
        const std::string key = result_key(job.point.spec, job.with_baseline);
        PointRun run;
        run.key = &key;
        run.point = &job.point;
        run.with_baseline = job.with_baseline;
        run.index = job.index;
        run.attempts = job.attempts;
        std::string why;
        ok = execute_point_to_store(run, store, nullptr, &why);
      }
    } catch (...) {
      ok = false;  // an escaping throw would unwind into the parent's code
    }
    if (!ok) std::_Exit(13);
    buf.erase(0, nl + 1);
    if (!send_all(fd, "\n")) std::_Exit(0);
  }
}

/// The one why-slug table: why a worker that exited (or was killed) without
/// a stored entry failed, from waitpid's result and status.
const char* failure_why(pid_t got, int st, bool timed_out) {
  const bool exited = got > 0 && WIFEXITED(st);
  if (timed_out) return "timeout";
  if (exited && WEXITSTATUS(st) == store::kFaultCrashExit) {
    return "injected_crash";
  }
  if (got > 0 && WIFSIGNALED(st)) return "killed";
  if (exited && WEXITSTATUS(st) == 0) {
    return "publish_lost";  // exit 0 but no entry: a failure
  }
  return "exit_nonzero";
}

class ForkAttemptRunner final : public AttemptRunner {
 public:
  ForkAttemptRunner(store::ResultStore* store, double timeout_s,
                    std::function<void()> in_child)
      : store_(store), timeout_s_(timeout_s), in_child_(std::move(in_child)) {}
  ~ForkAttemptRunner() override { stop(); }
  ForkAttemptRunner(const ForkAttemptRunner&) = delete;
  ForkAttemptRunner& operator=(const ForkAttemptRunner&) = delete;

  bool start(u32 slot, const PointRun& p, double now_ms,
             std::string* why) override {
    if (slot >= workers_.size()) workers_.resize(slot + 1);
    Worker& w = workers_[slot];
    FG_CHECK(!w.busy);
    // The ordinals a child forked at this instant would inherit.
    const std::string job =
        encode_worker_job(p, store::fault_ops()) + "\n";
    // An idle worker that died since its last attempt (killed from
    // outside) refuses the job; it is replaced once.
    if (w.pid <= 0 || !send_all(w.fd, job)) {
      retire(w);
      if (!spawn(&w) || !send_all(w.fd, job)) {
        retire(w);
        *why = "fork_failed";
        return false;
      }
    }
    w.busy = true;
    w.timed_out = false;
    w.key = *p.key;
    w.deadline_ms = timeout_s_ > 0 ? now_ms + timeout_s_ * 1000.0 : 0.0;
    return true;
  }

  void reap(double now_ms, std::vector<AttemptResult>* done) override {
    for (u32 slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.busy) continue;
      // One reply byte per attempt; EOF (or a socket error) means the
      // worker is gone.
      char reply = 0;
      ssize_t n;
      do {
        n = ::recv(w.fd, &reply, 1, MSG_DONTWAIT);
      } while (n < 0 && errno == EINTR);
      const bool replied = n == 1;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (w.deadline_ms > 0 && !w.timed_out && now_ms > w.deadline_ms) {
          ::kill(w.pid, SIGKILL);
          w.timed_out = true;  // reaped on a later call, at its EOF
        }
        continue;
      }
      w.busy = false;
      AttemptResult r;
      r.slot = slot;
      r.timed_out = w.timed_out;
      // The store — not the reply — is the source of truth: success means
      // a validated entry exists (a worker that dies after its publish
      // still counts).
      r.ok = store_->get(w.key, &r.payload) ==
             store::ResultStore::GetStatus::kHit;
      if (replied && r.ok) {
        done->push_back(std::move(r));
        continue;  // the worker lives on for the slot's next attempt
      }
      // A worker survives only a successful attempt.
      if (replied) ::kill(w.pid, SIGKILL);
      int st = 0;
      const pid_t got = ::waitpid(w.pid, &st, 0);
      ::close(w.fd);
      w = Worker{};
      if (!r.ok) {
        // Replied ok but no entry: the publish was lost.
        r.why = replied ? "publish_lost" : failure_why(got, st, r.timed_out);
      }
      done->push_back(std::move(r));
    }
  }

  void wait(double max_ms) override {
    std::vector<pollfd> fds;
    for (const Worker& w : workers_) {
      if (w.busy) fds.push_back({w.fd, POLLIN, 0});
    }
    if (fds.empty()) {
      sleep_ms(max_ms);
      return;
    }
    // A finishing worker wakes poll (its reply, or EOF when it dies); a
    // hung one is due for the watchdog at its deadline.
    if (const double d = next_deadline_ms(); d > 0) {
      max_ms = std::min(max_ms, d - api::now_ms());
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           static_cast<int>(std::ceil(std::max(max_ms, 0.0))));
  }

  void wake_fds(std::vector<int>* fds) const override {
    for (const Worker& w : workers_) {
      if (w.busy) fds->push_back(w.fd);
    }
  }

  double next_deadline_ms() const override {
    double earliest = 0.0;
    for (const Worker& w : workers_) {
      if (!w.busy || w.timed_out || w.deadline_ms <= 0) continue;
      if (earliest == 0.0 || w.deadline_ms < earliest) earliest = w.deadline_ms;
    }
    return earliest;
  }

  void stop() override {
    // Every socket is closed before any worker is waited on: an idle
    // worker exits on its EOF.
    for (Worker& w : workers_) {
      if (w.busy) ::kill(w.pid, SIGKILL);  // abandon the running attempt
      if (w.fd >= 0) ::close(w.fd);
    }
    for (const Worker& w : workers_) {
      if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
    }
    workers_.clear();
  }

 private:
  struct Worker {
    pid_t pid = -1;      // -1: none (not yet forked, or reaped)
    int fd = -1;         // the parent's end of the worker's socket
    bool busy = false;   // an attempt is running
    bool timed_out = false;
    double deadline_ms = 0;  // 0 = no watchdog
    std::string key;     // the running attempt's result key
  };

  /// Fork a worker for `w`'s slot. The child closes every sibling's socket
  /// end first: a sibling holding the parent's end would keep a worker
  /// from seeing EOF when the parent dies.
  bool spawn(Worker* w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      return false;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(sv[0]);
      for (const Worker& other : workers_) {
        if (other.fd >= 0) ::close(other.fd);
      }
      if (in_child_) in_child_();
      worker_main(sv[1], store_);
    }
    ::close(sv[1]);
    if (pid < 0) {
      ::close(sv[0]);
      return false;
    }
    w->pid = pid;
    w->fd = sv[0];
    return true;
  }

  /// Close `w`'s socket and reap its process (a worker that died, or an
  /// idle one, which exits on the EOF).
  static void retire(Worker& w) {
    if (w.fd >= 0) ::close(w.fd);
    if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
    w = Worker{};
  }

  store::ResultStore* store_;
  double timeout_s_;
  std::function<void()> in_child_;
  std::vector<Worker> workers_;  // indexed by slot
};
#endif  // !_WIN32

class ThreadAttemptRunner final : public AttemptRunner {
 public:
  ThreadAttemptRunner(store::ResultStore* store, u32 threads)
      : store_(store), pool_(threads) {}
  ThreadAttemptRunner(const ThreadAttemptRunner&) = delete;
  ThreadAttemptRunner& operator=(const ThreadAttemptRunner&) = delete;

  bool start(u32 slot, const PointRun& p, double, std::string*) override {
    // The task gets its own copy of the run and of its point: the scheduler
    // keeps mutating the PointRun (waiters, state) on the driver's thread,
    // and the point's owner may release it before the task runs.
    pool_.submit([this, slot, run = p, point = *p.point]() mutable {
      run.point = &point;
      AttemptResult r;
      r.slot = slot;
      try {
        r.ok = execute_point_to_store(run, store_, &r.payload, &r.why);
      } catch (...) {
        // Nobody reads this task's future: report the throw as a failed
        // attempt rather than leave its slot busy forever.
        r.ok = false;
        r.why = "exception";
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        finished_.push_back(std::move(r));
      }
      cv_.notify_one();
    });
    return true;
  }

  void reap(double, std::vector<AttemptResult>* done) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (AttemptResult& r : finished_) done->push_back(std::move(r));
    finished_.clear();
  }

  void wait(double max_ms) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(max_ms),
                 [this] { return !finished_.empty(); });
  }

 private:
  store::ResultStore* store_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<AttemptResult> finished_;  // guarded by mu_
  ThreadPool pool_;  // last: joined before the members its tasks use
};

}  // namespace

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

std::string encode_worker_job(const PointRun& p, const store::FaultOps& ops) {
  json::Value v = json::Value::object();
  v.set("name", json::Value::of_str(p.point->name));
  v.set("spec", spec_to_json_value(p.point->spec));
  v.set("with_baseline", json::Value::of_bool(p.with_baseline));
  v.set("index", json::Value::of(p.index));
  v.set("attempts", json::Value::of(p.attempts));
  json::Value fault_ops = json::Value::array();
  for (const u64 n : ops) fault_ops.push(json::Value::of(n));
  v.set("fault_ops", std::move(fault_ops));
  return json::dump(v, 0);
}

bool decode_worker_job(const std::string& line, WorkerJob* out) {
  json::Value v;
  if (!json::parse(line, &v) || !v.is_object()) return false;
  const json::Value* spec = v.get("spec");
  const json::Value* ops = v.get("fault_ops");
  std::string err;
  if (spec == nullptr || ops == nullptr || !ops->is_array() ||
      ops->arr.size() != out->fault_ops.size() ||
      !spec_from_json_value(*spec, &out->point.spec, &err)) {
    return false;
  }
  out->point.name = v.get_str("name");
  out->with_baseline = v.get_bool("with_baseline", true);
  out->index = static_cast<u32>(v.get_u64("index"));
  out->attempts = static_cast<u32>(v.get_u64("attempts"));
  for (size_t i = 0; i < ops->arr.size(); ++i) {
    out->fault_ops[i] = ops->arr[i].num;
  }
  return true;
}

#if !defined(_WIN32)
std::unique_ptr<AttemptRunner> fork_attempt_runner(
    store::ResultStore* store, double timeout_s,
    std::function<void()> in_child) {
  return std::make_unique<ForkAttemptRunner>(store, timeout_s,
                                             std::move(in_child));
}
#endif

std::unique_ptr<AttemptRunner> thread_attempt_runner(store::ResultStore* store,
                                                     u32 threads) {
  return std::make_unique<ThreadAttemptRunner>(store, threads);
}

PointScheduler::PointScheduler(store::ResultStore* store,
                               std::unique_ptr<AttemptRunner> runner,
                               u32 workers, u32 max_attempts, u64 backoff_ms)
    : store_(store),
      runner_(std::move(runner)),
      max_attempts_(max_attempts),
      backoff_ms_(backoff_ms),
      slots_(std::max<u32>(1, workers)) {}

Submission& PointScheduler::add_submission(u64 id, const std::string& name,
                                           std::vector<GridPoint>&& points,
                                           bool with_baseline, bool replayed) {
  Submission& sub = subs_[id];
  sub.grid = std::move(points);
  add_submission(id, name, sub.grid, with_baseline, replayed);
  if (sub.complete()) std::vector<GridPoint>().swap(sub.grid);  // all hits
  return sub;
}

Submission& PointScheduler::add_submission(u64 id, const std::string& name,
                                           const std::vector<GridPoint>& points,
                                           bool with_baseline, bool replayed) {
  Submission& sub = subs_[id];
  sub.id = id;
  sub.name = name;
  sub.replayed = replayed;
  sub.n_points = points.size();
  sub.payloads.assign(points.size(), "");

  ++stats_.submissions_accepted;
  if (replayed) ++stats_.submissions_replayed;
  stats_.points_submitted += points.size();

  for (u32 i = 0; i < points.size(); ++i) {
    const std::string key = result_key(points[i].spec, with_baseline);
    if (store_->get(key, &sub.payloads[i]) ==
        store::ResultStore::GetStatus::kHit) {
      ++sub.done;
      ++sub.from_store;
      ++stats_.store_hits;
      continue;
    }
    sub.payloads[i].clear();  // a miss leaves nothing usable
    auto it = points_.find(key);
    if (it != points_.end()) {
      // In-flight dedupe: one execution, every submitter answered.
      it->second.waiters.emplace_back(id, i);
      ++sub.deduped;
      ++stats_.dedupe_hits;
      continue;
    }
    const auto node = points_.emplace(key, PointRun{}).first;
    PointRun& run = node->second;
    run.key = &node->first;
    run.point = &points[i];
    run.with_baseline = with_baseline;
    run.index = i;
    run.waiters.emplace_back(id, i);
    backlog_[id].push_back(&run);
  }
  return sub;
}

PointRun* PointScheduler::take_next(double now_ms, u64 last_sub) {
  // Retry backlog first: a point past its backoff gate is older than
  // anything still unstarted.
  PointRun* p = nullptr;
  for (auto it = backoff_.begin(); it != backoff_.end(); ++it) {
    if ((*it)->ready_ms <= now_ms) {
      p = *it;
      backoff_.erase(it);
      break;
    }
  }

  // Round-robin over per-submission backlogs, starting after the last
  // submission served, so every worker slot drains the global queue fairly.
  while (p == nullptr && !backlog_.empty()) {
    auto it = backlog_.upper_bound(rr_cursor_);
    if (it == backlog_.end()) it = backlog_.begin();
    rr_cursor_ = it->first;
    if (it->second.empty()) {
      backlog_.erase(it);
      continue;
    }
    p = it->second.front();
    it->second.pop_front();
    if (last_sub != 0 && last_sub != it->first) ++stats_.steals;
    if (it->second.empty()) backlog_.erase(it);
  }
  if (p == nullptr) return nullptr;
  p->state = PointState::kRunning;
  ++p->attempts;
  ++running_;
  return p;
}

std::vector<u64> PointScheduler::step(double now_ms) {
  std::vector<u64> completed;
  // Reap first, so a slot freed now is refilled in this same step.
  std::vector<AttemptResult> finished;
  runner_->reap(now_ms, &finished);
  for (const AttemptResult& r : finished) {
    Slot& slot = slots_[r.slot];
    PointRun* p = slot.run;
    FG_CHECK(p != nullptr && p->state == PointState::kRunning);
    slot.run = nullptr;
    slot.last_sub = p->sub;
    if (r.ok) {
      --running_;
      ++stats_.executed;
      p->state = PointState::kDone;
      resolve_waiters(p, r.payload, &completed);
    } else {
      fail_attempt(p, r.why, r.timed_out, now_ms, &completed);
    }
  }

  for (u32 i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.run != nullptr) continue;
    PointRun* p = take_next(now_ms, slot.last_sub);
    if (p == nullptr) break;
    p->sub = p->waiters.empty() ? 0 : p->waiters.front().first;
    if (hooks_.begin) hooks_.begin(*p);
    std::string why;
    if (!runner_->start(i, *p, now_ms, &why)) {
      fail_attempt(p, why, /*timed_out=*/false, now_ms, &completed);
      continue;
    }
    slot.run = p;
  }
  // Every point of a completed submission is resolved, so no run borrows
  // from its grid any more (a cancelled one's points may still run for
  // other waiters).
  for (const u64 id : completed) {
    Submission& sub = subs_.at(id);
    if (!sub.cancelled) std::vector<GridPoint>().swap(sub.grid);
  }
  if (!released_.empty()) erase_released();
  return completed;
}

void PointScheduler::release(u64 id) {
  const Submission* sub = find(id);
  if (sub == nullptr) return;
  FG_CHECK(sub->complete() || sub->cancelled);
  released_.push_back(id);
  erase_released();
}

void PointScheduler::erase_released() {
  std::erase_if(released_, [this](u64 id) {
    const std::vector<GridPoint>& grid = subs_.at(id).grid;
    if (!grid.empty()) {
      const std::less<const GridPoint*> lt;
      const GridPoint* end = grid.data() + grid.size();
      for (const auto& [key, p] : points_) {
        if (!lt(p.point, grid.data()) && lt(p.point, end)) return false;
      }
    }
    subs_.erase(id);
    return true;
  });
}

void PointScheduler::wait(double now_ms) {
  double ms = kMaxWaitMs;
  if (const double ready = next_ready_ms(); ready > 0) {
    ms = std::clamp(ready - now_ms, 0.0, ms);
  }
  runner_->wait(ms);
}

double PointScheduler::next_ready_ms() const {
  double earliest = 0.0;
  for (const PointRun* p : backoff_) {
    if (earliest == 0.0 || p->ready_ms < earliest) earliest = p->ready_ms;
  }
  return earliest;
}

void PointScheduler::resolve_waiters(PointRun* p, const std::string& payload,
                                     std::vector<u64>* completed) {
  if (hooks_.resolve) hooks_.resolve(*p);
  const bool failed = p->state == PointState::kFailed;
  for (const auto& [sub_id, index] : p->waiters) {
    auto sit = subs_.find(sub_id);
    if (sit == subs_.end() || sit->second.cancelled) continue;
    Submission& sub = sit->second;
    if (failed) {
      ++sub.failed;
    } else {
      sub.payloads[index] = payload;
      ++sub.done;
    }
    if (sub.complete()) completed->push_back(sub_id);
  }
  points_.erase(points_.find(*p->key));
}

void PointScheduler::fail_attempt(PointRun* p, const std::string& why,
                                  bool timed_out, double now_ms,
                                  std::vector<u64>* completed) {
  --running_;
  if (timed_out) ++stats_.timeouts;
  if (p->attempts < max_attempts_) {
    ++stats_.retries;
    p->state = PointState::kBackoff;
    p->ready_ms =
        now_ms + static_cast<double>(backoff_for(backoff_ms_, p->attempts - 1));
    backoff_.push_back(p);
    if (hooks_.retry) hooks_.retry(*p, timed_out);
    return;
  }
  p->state = PointState::kFailed;
  p->why = why;
  ++stats_.failed_points;
  resolve_waiters(p, "", completed);
}

size_t PointScheduler::cancel(u64 id) {
  auto sit = subs_.find(id);
  if (sit == subs_.end()) return static_cast<size_t>(-1);
  Submission& sub = sit->second;
  if (sub.cancelled) return 0;
  sub.cancelled = true;
  ++stats_.submissions_cancelled;
  size_t dropped = 0;
  // Detach from every point; a pending/backoff point left with no waiters
  // has no customer — drop it. Running points finish and publish: the store
  // keeps the work either way.
  for (auto it = points_.begin(); it != points_.end();) {
    PointRun& p = it->second;
    const size_t ours = std::erase_if(
        p.waiters, [id](const std::pair<u64, u32>& e) { return e.first == id; });
    if (ours > 0 && p.waiters.empty() && p.state != PointState::kRunning) {
      ++dropped;
      ++stats_.cancelled_points;
      std::erase(backoff_, &p);
      for (auto& [sub_id, dq] : backlog_) std::erase(dq, &p);
      it = points_.erase(it);
      continue;
    }
    ++it;
  }
  // Points this submission queued that other submissions still wait on
  // move to the backlog of their next waiter.
  if (auto b = backlog_.find(id); b != backlog_.end()) {
    for (PointRun* p : b->second) backlog_[p->waiters.front().first].push_back(p);
    backlog_.erase(b);
  }
  return dropped;
}

Submission* PointScheduler::find(u64 id) {
  auto it = subs_.find(id);
  return it == subs_.end() ? nullptr : &it->second;
}

size_t PointScheduler::queue_depth() const {
  size_t n = 0;
  for (const auto& [key, p] : points_) {
    if (p.state == PointState::kPending || p.state == PointState::kBackoff) {
      ++n;
    }
  }
  return n;
}

}  // namespace fg::api
