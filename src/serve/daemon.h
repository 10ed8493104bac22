// ServeDaemon: the sharded, deduplicating experiment service.
//
// One daemon process owns a durable ResultStore and a Unix-domain socket.
// Clients submit ExperimentSpecs (sweep axes expanded into points keyed by
// the canonical result_key); the daemon answers already-published points
// straight from the store, attaches duplicate in-flight points to the one
// execution (two clients submitting the same point get one simulation and
// two answers), and schedules the rest onto a pool of forked workers. All of
// that is api::PointScheduler (src/api/scheduler.h) — the same scheduler,
// watchdog and bounded retry `fgsim campaign` runs — so idle workers drain
// the global backlog round-robin across submissions (work stealing) and a
// small submission never queues behind a giant one.
//
// Crash safety: every accepted submission is journaled as an atomic
// faultfs-published file under <store>/serve/queue/ before it is
// acknowledged, and removed only when the submission completes. A killed
// daemon (SIGKILL, power cut) restarts into the same queue: journaled
// submissions are replayed, already-published points are store hits (zero
// re-execution), and only genuinely unfinished points run. Workers are
// forked processes whose only side effect is an atomic store publish, so a
// daemon death cannot corrupt results — the store's checksummed entries and
// the journal's atomicity carry the whole burden, exactly as in `fgsim
// campaign` (and exercised by the same FG_FAULT machinery).
//
// Concurrency model: ONE event-loop thread and one poll() set: the listen
// socket, the client connections, and the sockets of the busy long-lived
// forked workers, whose reply (or exit) wakes the loop to reap them; its
// timeout is the next backoff gate or watchdog deadline. Simulation happens
// in the workers only; nothing in the daemon needs a lock. run() blocks
// until a shutdown request, request_stop() (signal handlers), or a fatal
// socket error.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "src/api/scheduler.h"
#include "src/serve/protocol.h"
#include "src/store/result_store.h"

namespace fg::serve {

struct ServeConfig {
  std::string store_dir;
  std::string socket_path;
  /// Forked worker slots. 0 = FG_JOBS env, else the usable CPUs; either
  /// way capped at the usable CPUs (ThreadPool::cap_jobs).
  u32 workers = 0;
  /// Attempts per point before it counts as failed.
  u32 max_attempts = 3;
  /// Per-point wall-clock watchdog in seconds; 0 disables.
  double point_timeout_s = 0.0;
  /// Base retry backoff, doubled per subsequent attempt.
  u64 backoff_ms = 50;
  bool quiet = false;
};

#if !defined(_WIN32)

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeConfig cfg);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Open the store, bind + listen on the socket (refusing a socket another
  /// live daemon holds; unlinking a stale one), replay the submission
  /// journal. False with *err on store/socket I/O failure.
  bool init(std::string* err);

  /// The event loop; blocks until shutdown. True on a clean stop, false on
  /// a fatal socket error (*err set).
  bool run(std::string* err);

  /// Async stop (safe from signal handlers and other threads): the loop
  /// exits at its next wakeup, leaving journaled submissions for a restart.
  void request_stop() { stop_.store(true); }

  u32 workers() const { return sched_.workers(); }
  /// <store>/serve/queue — one atomic JSON file per unfinished submission.
  std::string journal_dir() const;

 private:
  struct Conn {
    int fd = -1;
    FrameBuffer in;
    /// Deferred-response state: a submit --wait or drain parks here.
    u64 wait_sub = 0;  // 0 = no deferred submit response
    bool want_results = false;
    bool drain_wait = false;
  };

  bool bind_socket(std::string* err);
  void replay_journal();
  u64 accept_submission(const Request& req, bool replayed, u64 forced_id,
                        api::Submission** out, std::string* err);
  /// Close the listen socket and every client connection (in a forked
  /// worker, once, right after its fork).
  void close_sockets();
  /// Finalize a completed or cancelled submission: drop its journal file,
  /// answer the clients parked on it, keep its status summary and release
  /// it from the scheduler.
  void finish_submission(u64 id);
  void check_drain_waiters();

  void handle_line(Conn& c, const std::string& line);
  void handle_request(Conn& c, const Request& req);
  json::Value submission_json(const api::Submission& sub,
                              bool with_results) const;
  json::Value stats_json() const;

  /// Queue `text` as a frame on the connection (best effort; a dead client
  /// only loses its own response — its fd is closed and marked for sweep).
  void send(Conn& c, const std::string& text);
  /// The live connection currently holding `fd`, or nullptr.
  Conn* find_conn(int fd);
  /// Erase connections marked closed (fd < 0) during this loop iteration.
  void sweep_closed_conns();

  ServeConfig cfg_;
  store::ResultStore store_;
  api::PointScheduler sched_;
  std::vector<Conn> conns_;
  /// Status summaries of the most recently finished submissions (at most
  /// kFinishedKept), so `status` still answers for them once released.
  static constexpr size_t kFinishedKept = 256;
  std::map<u64, json::Value> finished_;
  int listen_fd_ = -1;
  u64 next_id_ = 1;
  bool draining_ = false;
  std::atomic<bool> stop_{false};
  bool inited_ = false;
};

#endif  // !_WIN32

}  // namespace fg::serve
