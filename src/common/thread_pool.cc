#include "src/common/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/common/env.h"

namespace fg {

u32 usable_cpus() {
#if defined(__linux__)
  // hardware_concurrency() counts every host core even under taskset.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<u32>(CPU_COUNT(&set));
  }
#endif
  return std::max<u32>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(u32 n_threads) {
  const u32 n = std::max<u32>(1, n_threads);
  workers_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

u32 ThreadPool::default_jobs() {
  const u32 n = env_u32_or("FG_JOBS", 0);
  return n > 0 ? n : usable_cpus();
}

u32 ThreadPool::cap_jobs(u32 requested) {
  return std::min(requested > 0 ? requested : default_jobs(), usable_cpus());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace fg
