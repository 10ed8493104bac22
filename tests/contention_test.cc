// Concurrency-contract tests: SimSession worker capping and BaselineCache
// once-semantics / in-flight-wait accounting when more callers than cores
// race on one key.
#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/common/thread_pool.h"
#include "src/soc/experiment.h"
#include "src/soc/figures.h"

namespace fg::soc {
namespace {

u32 hw() { return usable_cpus(); }

/// Requesting more jobs than the machine has cores must cap the worker
/// count at hardware concurrency.
TEST(Contention, SimSessionCapsWorkersAtHardwareConcurrency) {
  const u32 oversub = hw() * 2 + 3;
  api::SimSession session(std::vector<api::GridPoint>{}, {.jobs = oversub});
  EXPECT_EQ(session.workers(), hw());
  api::SimSession one(std::vector<api::GridPoint>{}, {.jobs = 1});
  EXPECT_EQ(one.workers(), 1u);
}

/// More points than cores, all sharing one baseline key (identical workload
/// and core/mem config; only the kernel deployment differs): the cache must
/// run the baseline exactly once and every point must read the same cycles.
TEST(Contention, SharedBaselineKeyRunsOnceAcrossOversubscribedSweep) {
  const u32 n_points = hw() * 2 + 2;
  const trace::WorkloadConfig wl = paper_workload("swaptions", 2'000);
  std::vector<api::GridPoint> points;
  for (u32 i = 0; i < n_points; ++i) {
    api::GridPoint p;
    p.name = "contention/" + std::to_string(i);
    p.spec.name = p.name;
    p.spec.workload = wl;
    p.spec.soc = table2_soc();
    // Different deployments, same baseline key (the baseline never runs the
    // kernels).
    p.spec.soc.kernels = {deploy(i % 2 == 0 ? kernels::KernelKind::kPmc
                                           : kernels::KernelKind::kAsan,
                                 1 + i % 3)};
    points.push_back(std::move(p));
  }
  // workers capped internally
  api::SimSession session(std::move(points), {.jobs = n_points});
  const std::vector<api::RunOutcome>& results = session.run_all();
  ASSERT_EQ(results.size(), n_points);
  EXPECT_EQ(session.baseline_cache().misses(), 1u);
  EXPECT_EQ(session.baseline_cache().hits(), n_points - 1u);
  for (const api::RunOutcome& r : results) {
    EXPECT_TRUE(r.executed);
    EXPECT_EQ(r.baseline_cycles, results[0].baseline_cycles);
    EXPECT_GT(r.baseline_cycles, 0u);
  }
}

/// Direct cache contention: threads released together against one cold key.
/// Exactly one runs the baseline; everyone else hits; callers that arrived
/// while the run was in flight are counted as inflight_waits. The barrier
/// plus a multi-hundred-ms baseline window make the overlap deterministic
/// in practice even on a single-core machine (the waiter only needs to be
/// scheduled once during the run).
TEST(Contention, BaselineCacheCountsInflightWaitsUnderContention) {
  BaselineCache cache;
  const SocConfig sc = table2_soc();
  const trace::WorkloadConfig wl = paper_workload("streamcluster", 150'000);
  const u32 n_threads = std::max(4u, hw() + 2);

  std::barrier sync(n_threads);
  std::vector<Cycle> cycles(n_threads, 0);
  std::vector<int> ran(n_threads, 0);
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (u32 t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      bool mine = false;
      cycles[t] = cache.get(wl, sc, &mine);
      ran[t] = mine ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();

  int ran_total = 0;
  for (const int r : ran) ran_total += r;
  EXPECT_EQ(ran_total, 1);  // once-semantics: exactly one executed it
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), n_threads - 1u);
  for (u32 t = 1; t < n_threads; ++t) EXPECT_EQ(cycles[t], cycles[0]);
  EXPECT_GT(cycles[0], 0u);
  EXPECT_GE(cache.inflight_waits(), 1u);
  EXPECT_LE(cache.inflight_waits(), n_threads - 1u);
}

}  // namespace
}  // namespace fg::soc
