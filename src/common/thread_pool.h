// Fixed-size worker pool for parallel grid runs (api::SimSession).
//
// Simulation points are coarse-grained (tens of milliseconds to seconds
// each), so a plain mutex-protected task deque is far below measurement
// noise; no lock-free cleverness is warranted. Tasks are arbitrary
// callables; `submit` returns a std::future for the callable's result, and
// exceptions thrown by a task propagate through that future.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace fg {

/// CPUs this process may run on: the size of its affinity mask (taskset,
/// cgroup cpusets), else std::thread::hardware_concurrency(), else 1.
u32 usable_cpus();

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (clamped to >= 1). The pool never grows.
  explicit ThreadPool(u32 n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Job count from the environment: FG_JOBS if set and positive, else
  /// usable_cpus(). A malformed FG_JOBS (e.g. "4x") aborts naming it.
  static u32 default_jobs();

  /// The one worker-count rule of every pool and point scheduler:
  /// `requested` (0 = default_jobs()) capped at usable_cpus().
  static u32 cap_jobs(u32 requested);

  u32 size() const { return static_cast<u32>(workers_.size()); }

  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace fg
