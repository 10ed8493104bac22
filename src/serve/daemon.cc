#include "src/serve/daemon.h"

#if !defined(_WIN32)

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/common/thread_pool.h"
#include "src/store/faultfs.h"

namespace fg::serve {

using api::now_ms;
using api::Submission;

namespace {

std::string journal_file(const std::string& dir, u64 id) {
  char name[32];
  std::snprintf(name, sizeof(name), "sub-%08llu.json",
                static_cast<unsigned long long>(id));
  return dir + "/" + name;
}

}  // namespace

ServeDaemon::ServeDaemon(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      sched_(&store_,
             api::fork_attempt_runner(&store_, cfg_.point_timeout_s,
                                      [this] { close_sockets(); }),
             ThreadPool::cap_jobs(cfg_.workers), cfg_.max_attempts,
             cfg_.backoff_ms) {
  sched_.hooks().resolve = [this](const api::PointRun& p) {
    if (!cfg_.quiet && p.state == api::PointState::kDone) {
      std::printf("fgsim serve: executed %s (sub %llu)\n",
                  p.point->name.c_str(),
                  static_cast<unsigned long long>(p.sub));
    }
  };
}

ServeDaemon::~ServeDaemon() {
  const bool listening = listen_fd_ >= 0;
  close_sockets();
  if (listening) ::unlink(cfg_.socket_path.c_str());
}

void ServeDaemon::close_sockets() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

std::string ServeDaemon::journal_dir() const {
  return cfg_.store_dir + "/serve/queue";
}

bool ServeDaemon::bind_socket(std::string* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    *err = "serve: socket path too long (" +
           std::to_string(cfg_.socket_path.size()) + " bytes, max " +
           std::to_string(sizeof(addr.sun_path) - 1) + "): " +
           cfg_.socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);

  struct stat st{};
  if (::lstat(cfg_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      *err = "serve: " + cfg_.socket_path +
             " exists and is not a socket; refusing to unlink it";
      return false;
    }
    // A socket file already there is either a live daemon (connect
    // succeeds: refuse to fight over the store) or a stale leftover from a
    // kill -9 (connect refused: unlink and take over — the resume path).
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool alive = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                                   sizeof(addr)) == 0;
      ::close(probe);
      if (alive) {
        *err = "serve: another daemon is live on " + cfg_.socket_path;
        return false;
      }
    }
    ::unlink(cfg_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *err = std::string("serve: socket(): ") + std::strerror(errno);
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *err = "serve: bind(" + cfg_.socket_path + "): " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    *err = std::string("serve: listen(): ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

bool ServeDaemon::init(std::string* err) {
  if (inited_) return true;
  if (cfg_.store_dir.empty() || cfg_.socket_path.empty()) {
    *err = "serve: store directory and socket path are required";
    return false;
  }
  if (!store_.open(cfg_.store_dir, err)) return false;
  if (!store::make_dirs(journal_dir(), err)) return false;
  if (!bind_socket(err)) return false;
  replay_journal();
  inited_ = true;
  return true;
}

void ServeDaemon::replay_journal() {
  std::vector<std::pair<u64, std::string>> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(journal_dir(), ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long id = 0;
    if (std::sscanf(name.c_str(), "sub-%llu.json", &id) == 1 && id > 0) {
      files.emplace_back(id, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& [id, path] : files) {
    next_id_ = std::max(next_id_, id + 1);
    std::string text, ferr;
    if (!store::read_file(path, &text, &ferr)) continue;
    json::Value v;
    if (!json::parse(text, &v) || !v.is_object() || v.get("spec") == nullptr) {
      // A garbled journal entry (torn by ENOSPC?) cannot be resumed; leave
      // it in place as evidence rather than silently deleting it.
      std::fprintf(stderr, "fgsim serve: unreadable submission journal %s\n",
                   path.c_str());
      continue;
    }
    Request req;
    req.kind = RequestKind::kSubmit;
    std::string serr;
    if (!api::spec_from_json_value(*v.get("spec"), &req.spec, &serr)) {
      std::fprintf(stderr, "fgsim serve: journal %s: bad spec: %s\n",
                   path.c_str(), serr.c_str());
      continue;
    }
    req.name = v.get_str("name");
    req.with_baseline = v.get_bool("with_baseline", true);
    Submission* sub = nullptr;
    std::string aerr;
    if (accept_submission(req, /*replayed=*/true, id, &sub, &aerr) == 0) {
      std::fprintf(stderr, "fgsim serve: journal %s: %s\n", path.c_str(),
                   aerr.c_str());
      continue;
    }
    if (!cfg_.quiet) {
      std::printf(
          "fgsim serve: replayed submission %llu (%zu points, %zu already "
          "published)\n",
          static_cast<unsigned long long>(id), sub->n_points, sub->from_store);
    }
    if (sub->complete()) finish_submission(sub->id);
  }
}

u64 ServeDaemon::accept_submission(const Request& req, bool replayed,
                                   u64 forced_id, Submission** out,
                                   std::string* err) {
  std::vector<api::GridPoint> points;
  if (!api::expand_grid(req.spec, &points, err)) return 0;
  const u64 id = forced_id != 0 ? forced_id : next_id_++;

  if (!replayed) {
    // Journal the accepted submission BEFORE acknowledging it: a daemon
    // killed one instruction after the ack still restarts into a queue
    // that contains this work.
    json::Value j = json::Value::object();
    j.set("v", json::Value::of(kProtocolVersion));
    if (!req.name.empty()) j.set("name", json::Value::of_str(req.name));
    j.set("with_baseline", json::Value::of_bool(req.with_baseline));
    j.set("spec", api::spec_to_json_value(req.spec));
    if (!store::write_file_atomic(journal_file(journal_dir(), id),
                                  json::dump(j, 0), err)) {
      return 0;
    }
  }

  const std::string name = !req.name.empty() ? req.name : req.spec.name;
  *out = &sched_.add_submission(id, name, std::move(points),
                                 req.with_baseline, replayed);
  return id;
}

void ServeDaemon::finish_submission(u64 id) {
  Submission* sub = sched_.find(id);
  if (sub == nullptr || sub->finalized) return;
  sub->finalized = true;
  if (!sub->cancelled) ++sched_.stats().submissions_completed;
  store::remove_file(journal_file(journal_dir(), id));
  for (Conn& c : conns_) {  // parked `submit --wait` clients
    if (c.fd < 0 || c.wait_sub != id) continue;
    c.wait_sub = 0;
    send(c, ok_response(submission_json(*sub, c.want_results)));
  }
  if (!cfg_.quiet) {
    std::printf(
        "fgsim serve: submission %llu %s: %zu points, %zu from store, %zu "
        "deduped, %zu failed\n",
        static_cast<unsigned long long>(id),
        sub->cancelled ? "cancelled" : "complete", sub->n_points,
        sub->from_store, sub->deduped, sub->failed);
    std::fflush(stdout);
  }
  finished_[id] = submission_json(*sub, false);
  if (finished_.size() > kFinishedKept) finished_.erase(finished_.begin());
  sched_.release(id);
}

json::Value ServeDaemon::submission_json(const Submission& sub,
                                         bool with_results) const {
  json::Value v = json::Value::object();
  v.set("id", json::Value::of(sub.id));
  v.set("name", json::Value::of_str(sub.name));
  v.set("points", json::Value::of(sub.n_points));
  v.set("done", json::Value::of(sub.done));
  v.set("failed", json::Value::of(sub.failed));
  v.set("from_store", json::Value::of(sub.from_store));
  v.set("deduped", json::Value::of(sub.deduped));
  v.set("complete", json::Value::of_bool(sub.complete()));
  v.set("cancelled", json::Value::of_bool(sub.cancelled));
  v.set("replayed", json::Value::of_bool(sub.replayed));
  if (with_results) {
    json::Value arr = json::Value::array();
    for (const std::string& payload : sub.payloads) {
      json::Value o;
      if (payload.empty() || !json::parse(payload, &o)) {
        o = json::Value();  // failed/unresolved points export null
      }
      arr.push(std::move(o));
    }
    v.set("results", std::move(arr));
  }
  return v;
}

json::Value ServeDaemon::stats_json() const {
  const api::SchedulerStats& s = sched_.stats();
  json::Value st = json::Value::object();
  st.set("submissions_accepted", json::Value::of(s.submissions_accepted));
  st.set("submissions_completed", json::Value::of(s.submissions_completed));
  st.set("submissions_cancelled", json::Value::of(s.submissions_cancelled));
  st.set("submissions_replayed", json::Value::of(s.submissions_replayed));
  st.set("points_submitted", json::Value::of(s.points_submitted));
  st.set("store_hits", json::Value::of(s.store_hits));
  st.set("dedupe_hits", json::Value::of(s.dedupe_hits));
  st.set("executed", json::Value::of(s.executed));
  st.set("retries", json::Value::of(s.retries));
  st.set("timeouts", json::Value::of(s.timeouts));
  st.set("failed_points", json::Value::of(s.failed_points));
  st.set("cancelled_points", json::Value::of(s.cancelled_points));
  st.set("steals", json::Value::of(s.steals));
  st.set("queue_depth", json::Value::of(sched_.queue_depth()));
  st.set("running", json::Value::of(sched_.running()));

  json::Value workers = json::Value::array();
  for (u32 i = 0; i < sched_.workers(); ++i) {
    const api::PointRun* p = sched_.slot_point(i);
    json::Value wv = json::Value::object();
    wv.set("state", json::Value::of_str(p != nullptr ? "running" : "idle"));
    if (p != nullptr) {
      wv.set("sub", json::Value::of(p->sub));
      wv.set("key", json::Value::of_str(p->key->substr(0, 48)));
    }
    workers.push(std::move(wv));
  }

  const store::StoreStats ss = store_.stats();
  json::Value sv = json::Value::object();
  sv.set("hits", json::Value::of(ss.hits));
  sv.set("misses", json::Value::of(ss.misses));
  sv.set("publishes", json::Value::of(ss.publishes));
  sv.set("quarantined", json::Value::of(ss.quarantined));

  json::Value v = json::Value::object();
  v.set("stats", std::move(st));
  v.set("workers", std::move(workers));
  v.set("store", std::move(sv));
  v.set("draining", json::Value::of_bool(draining_));
  return v;
}

void ServeDaemon::check_drain_waiters() {
  if (!draining_ || !sched_.idle()) return;
  for (Conn& c : conns_) {
    if (c.fd < 0 || !c.drain_wait) continue;
    c.drain_wait = false;
    json::Value v = json::Value::object();
    v.set("drained", json::Value::of_bool(true));
    v.set("failed_points", json::Value::of(sched_.stats().failed_points));
    send(c, ok_response(std::move(v)));
  }
}

void ServeDaemon::handle_line(Conn& c, const std::string& line) {
  if (line.empty()) return;  // blank keep-alive lines are tolerated
  Request req;
  std::string err;
  if (!parse_request(line, &req, &err)) {
    send(c, error_response(err));
    return;
  }
  handle_request(c, req);
}

void ServeDaemon::handle_request(Conn& c, const Request& req) {
  switch (req.kind) {
    case RequestKind::kSubmit: {
      if (draining_) {
        send(c, error_response("daemon is draining; not accepting work"));
        return;
      }
      Submission* sub = nullptr;
      std::string err;
      const u64 id = accept_submission(req, /*replayed=*/false, 0, &sub, &err);
      if (id == 0) {
        send(c, error_response("submit: " + err));
        return;
      }
      if (sub->complete()) {
        const std::string resp =
            ok_response(submission_json(*sub, req.want_results));
        finish_submission(id);
        send(c, resp);
        return;
      }
      if (req.wait) {
        c.wait_sub = id;  // answered by finish_submission
        c.want_results = req.want_results;
        return;
      }
      json::Value ack = submission_json(*sub, false);
      ack.set("accepted", json::Value::of_bool(true));
      send(c, ok_response(std::move(ack)));
      return;
    }
    case RequestKind::kStatus: {
      if (req.has_id) {
        if (auto f = finished_.find(req.id); f != finished_.end()) {
          send(c, ok_response(f->second));
          return;
        }
        Submission* sub = sched_.find(req.id);
        if (sub == nullptr) {
          send(c, error_response("status: unknown submission id " +
                                 std::to_string(req.id)));
          return;
        }
        send(c, ok_response(submission_json(*sub, false)));
        return;
      }
      // The kept summaries of finished submissions and the live ones, in id
      // order (a finished cancelled one lingers in the scheduler until the
      // points borrowing its grid resolve; its summary stands for it).
      std::map<u64, json::Value> by_id = finished_;
      for (const auto& [id, sub] : sched_.submissions()) {
        if (!sub.finalized) by_id.emplace(id, submission_json(sub, false));
      }
      json::Value jobs = json::Value::array();
      for (auto& [id, job] : by_id) jobs.push(std::move(job));
      json::Value v = json::Value::object();
      v.set("jobs", std::move(jobs));
      v.set("draining", json::Value::of_bool(draining_));
      send(c, ok_response(std::move(v)));
      return;
    }
    case RequestKind::kCancel: {
      size_t dropped = sched_.cancel(req.id);
      if (dropped == static_cast<size_t>(-1) && finished_.count(req.id)) {
        dropped = 0;  // already finished: nothing left to cancel
      }
      if (dropped == static_cast<size_t>(-1)) {
        send(c, error_response("cancel: unknown submission id " +
                               std::to_string(req.id)));
        return;
      }
      finish_submission(req.id);  // a parked waiter learns of the cancel
      json::Value v = json::Value::object();
      v.set("id", json::Value::of(req.id));
      v.set("cancelled_pending", json::Value::of(dropped));
      send(c, ok_response(std::move(v)));
      return;
    }
    case RequestKind::kStats:
      send(c, ok_response(stats_json()));
      return;
    case RequestKind::kDrain: {
      draining_ = true;
      c.drain_wait = true;  // answered once the backlog is empty
      check_drain_waiters();
      return;
    }
    case RequestKind::kShutdown: {
      json::Value v = json::Value::object();
      v.set("shutting_down", json::Value::of_bool(true));
      send(c, ok_response(std::move(v)));
      stop_.store(true);
      return;
    }
  }
}

void ServeDaemon::send(Conn& c, const std::string& text) {
  if (c.fd < 0) return;
  std::string frame = text;
  frame.push_back('\n');
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(c.fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Dead or pathologically slow client (SO_SNDTIMEO): it loses only its
    // own response.
    ::close(c.fd);
    c.fd = -1;
    return;
  }
}

ServeDaemon::Conn* ServeDaemon::find_conn(int fd) {
  if (fd < 0) return nullptr;
  for (Conn& c : conns_) {
    if (c.fd == fd) return &c;
  }
  return nullptr;
}

void ServeDaemon::sweep_closed_conns() {
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.fd < 0; }),
               conns_.end());
}

bool ServeDaemon::run(std::string* err) {
  if (!inited_ && !init(err)) return false;
  if (!cfg_.quiet) {
    std::printf("fgsim serve: listening on %s, store %s, %u workers\n",
                cfg_.socket_path.c_str(), cfg_.store_dir.c_str(), workers());
    std::fflush(stdout);
  }
  while (!stop_.load()) {
    for (const u64 id : sched_.step(now_ms())) finish_submission(id);
    check_drain_waiters();

    // One poll set: the listen socket, the clients, and the busy workers,
    // whose reply or exit wakes the loop to reap them. The timeout is the
    // next backoff gate or watchdog deadline, lazy when neither is armed.
    int timeout = 200;
    for (const double at : {sched_.next_ready_ms(), sched_.next_deadline_ms()}) {
      if (at > 0) {
        timeout = std::min(
            timeout, std::clamp(static_cast<int>(at - now_ms()) + 1, 1, 50));
      }
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
    const size_t n_client_fds = fds.size();
    std::vector<int> worker_fds;
    sched_.wake_fds(&worker_fds);
    for (const int fd : worker_fds) fds.push_back({fd, POLLIN, 0});
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      *err = std::string("serve: poll(): ") + std::strerror(errno);
      return false;
    }

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        // Bound the damage a never-reading client can do to one send.
        timeval tv{30, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        Conn c;
        c.fd = fd;
        conns_.push_back(std::move(c));
      }
    }

    // Walk the poll snapshot by FD VALUE, not index: handling a request can
    // close other connections (an answer to a dead client), and a
    // positional walk over a mutated conns_ would read sockets poll never
    // flagged — a blocking recv on an idle peer. Closed conns are only
    // marked (fd = -1) here and swept below, so fd numbers cannot be
    // reused mid-walk.
    for (size_t k = 1; k < n_client_fds; ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn* c = find_conn(fds[k].fd);
      if (c == nullptr) continue;  // already closed this iteration
      char buf[4096];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EINTR))) {
        ::close(c->fd);  // EOF: a torn trailing line is discarded
        c->fd = -1;
        continue;
      }
      if (n > 0) c->in.append(buf, static_cast<size_t>(n));
      std::string line;
      while (c->fd >= 0 && c->in.take_line(&line)) handle_line(*c, line);
      if (c->fd >= 0 && c->in.over_limit()) {
        send(*c, error_response(
                     "oversized frame (> " + std::to_string(kMaxFrameBytes) +
                     " bytes without a newline); closing connection"));
        if (c->fd >= 0) ::close(c->fd);
        c->fd = -1;
      }
    }
    sweep_closed_conns();
  }

  // Clean stop: SIGKILL busy workers (their submissions stay journaled;
  // unpublished points re-execute on the next start), stop the idle ones,
  // and reap them all.
  sched_.stop();
  close_sockets();
  conns_.clear();
  ::unlink(cfg_.socket_path.c_str());
  if (!cfg_.quiet) {
    const api::SchedulerStats& s = sched_.stats();
    std::printf(
        "fgsim serve: stopped — %llu submissions, %llu store hits, %llu "
        "dedupe hits, %llu executed, %llu failed\n",
        static_cast<unsigned long long>(s.submissions_accepted),
        static_cast<unsigned long long>(s.store_hits),
        static_cast<unsigned long long>(s.dedupe_hits),
        static_cast<unsigned long long>(s.executed),
        static_cast<unsigned long long>(s.failed_points));
  }
  return true;
}

}  // namespace fg::serve

#endif  // !_WIN32
