#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace fg {
namespace {

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FuturesReturnValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SingleWorkerRunsSerially) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  // With one worker, tasks run in submission order.
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ZeroClampsToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DefaultJobsHonorsEnv) {
  ::setenv("FG_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ::setenv("FG_JOBS", "0", 1);  // non-positive falls through to hardware
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
  ::unsetenv("FG_JOBS");
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, DefaultJobsRejectsMalformedEnv) {
  ::setenv("FG_JOBS", "4x", 1);
  EXPECT_DEATH(ThreadPool::default_jobs(), "FG_JOBS");
  ::unsetenv("FG_JOBS");
}

TEST(ThreadPool, CapJobsNeverExceedsUsableCpus) {
  ::unsetenv("FG_JOBS");
  EXPECT_EQ(ThreadPool::cap_jobs(0), usable_cpus());
  EXPECT_EQ(ThreadPool::cap_jobs(usable_cpus() + 5), usable_cpus());
  EXPECT_EQ(ThreadPool::cap_jobs(1), 1u);
}

#if defined(__linux__)
// Pinned to one CPU (as under `taskset -c 0`), the pools must size to one
// worker even though the host has more cores.
TEST(ThreadPool, UsableCpusFollowsAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(usable_cpus(), static_cast<u32>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const u32 pinned = usable_cpus();
  const u32 capped = ThreadPool::cap_jobs(8);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(capped, 1u);
}
#endif

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] { ++count; });
    }
    // Futures intentionally dropped: destruction must still run every task.
  }
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace fg
