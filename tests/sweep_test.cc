// Determinism and threading contract of the parallel grid runner
// (api::SimSession): the parallel path must produce outcomes bit-identical
// to the serial path, point order must be stable, and the shared
// BaselineCache must run each baseline exactly once no matter how many
// threads miss concurrently.
#include "src/api/session.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace fg::soc {
namespace {

using api::GridPoint;
using api::RunOutcome;
using api::SimSession;

trace::WorkloadConfig small_wl(const std::string& name) {
  trace::WorkloadConfig wl;
  wl.profile = trace::profile_by_name(name);
  wl.seed = 42;
  wl.n_insts = 6000;
  wl.warmup_insts = 600;
  wl.attacks = {{trace::AttackKind::kHeapOob, 5}};
  return wl;
}

/// 3 workloads x 2 configs (ASan on 2 and 4 µcores) = 6 points.
std::vector<GridPoint> grid() {
  std::vector<GridPoint> points;
  for (const u32 n : {2u, 4u}) {
    for (const char* w : {"blackscholes", "dedup", "ferret"}) {
      GridPoint p;
      p.name = std::string(w) + "/" + std::to_string(n);
      p.spec.name = p.name;
      p.spec.workload = small_wl(w);
      p.spec.soc = table2_soc();
      p.spec.soc.kernels = {deploy(kernels::KernelKind::kAsan, n)};
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(Sweep, ParallelBitIdenticalToSerial) {
  SimSession serial(grid(), {.jobs = 1});
  serial.run_all();

  SimSession parallel(grid(), {.jobs = 4});
  parallel.run_all();

  ASSERT_EQ(serial.n_points(), parallel.n_points());
  ASSERT_EQ(serial.n_points(), 6u);
  for (size_t i = 0; i < serial.n_points(); ++i) {
    const RunOutcome& s = serial.results()[i];
    const RunOutcome& p = parallel.results()[i];
    EXPECT_EQ(s.name, p.name);
    EXPECT_TRUE(api::snapshots_equal(s.snapshot, p.snapshot))
        << api::snapshot_diff(s.snapshot, p.snapshot, "serial", "parallel");
    EXPECT_EQ(s.baseline_cycles, p.baseline_cycles) << s.name;
    EXPECT_DOUBLE_EQ(s.slowdown, p.slowdown) << s.name;
  }
}

TEST(Sweep, ResultsInRegistrationOrder) {
  const std::vector<GridPoint> points = grid();
  SimSession session(points, {.jobs = 4});
  const std::vector<RunOutcome>& results = session.run_all();
  // Point i's outcome must describe point i: it carries the point's name,
  // and each point ran at all.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(results[i].name, points[i].name);
    EXPECT_GT(results[i].result.cycles, 0u) << points[i].name;
    EXPECT_GT(results[i].slowdown, 0.0) << points[i].name;
    EXPECT_GT(results[i].baseline_cycles, 0u) << points[i].name;
  }
  // Same workload, same trace: identical baseline (cache key ignores the
  // engine count, which does not affect the unmonitored run).
  EXPECT_EQ(results[0].baseline_cycles, results[3].baseline_cycles);
}

TEST(Sweep, RunAllIsIdempotent) {
  SimSession session(grid(), {.jobs = 2});
  const std::vector<RunOutcome>& first = session.run_all();
  const Cycle c0 = first[0].result.cycles;
  const u64 misses = session.baseline_cache().misses();
  const std::vector<RunOutcome>& second = session.run_all();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second[0].result.cycles, c0);
  EXPECT_EQ(session.baseline_cache().misses(), misses);  // nothing re-ran
}

TEST(Sweep, SoftwarePointsRunTheInstrumentedCore) {
  GridPoint p;
  p.name = "sw";
  p.spec.name = p.name;
  p.spec.mode = api::Mode::kSoftware;
  p.spec.scheme = baseline::SwScheme::kAsanX8664;
  p.spec.workload = small_wl("blackscholes");
  p.spec.soc = table2_soc();
  SimSession session({p}, {.jobs = 2});
  const RunOutcome& r = session.run_all()[0];
  // Software instrumentation expands the dynamic instruction stream and
  // must slow the core down vs. the unmonitored baseline.
  EXPECT_GT(r.result.expansion, 1.0);
  EXPECT_GT(r.slowdown, 1.0);
}

TEST(Sweep, BaselineCacheSharedAcrossPoints) {
  SimSession session(grid(), {.jobs = 4});
  session.run_all();
  // 6 points over 3 distinct traces: 3 misses, 3 hits.
  EXPECT_EQ(session.baseline_cache().misses(), 3u);
  EXPECT_EQ(session.baseline_cache().hits(), 3u);
}

TEST(BaselineCache, ConcurrentMissesRunBaselineOnce) {
  BaselineCache cache;
  const trace::WorkloadConfig wl = small_wl("blackscholes");
  const SocConfig sc = table2_soc();
  std::vector<Cycle> results(8, 0);
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    for (size_t i = 0; i < results.size(); ++i) {
      futures.push_back(pool.submit(
          [&cache, &wl, &sc, &results, i] { results[i] = cache.get(wl, sc); }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
  for (const Cycle c : results) EXPECT_EQ(c, results[0]);
}

TEST(BaselineCache, KeyCoversBaselineRelevantSocKnobs) {
  BaselineCache cache;
  const trace::WorkloadConfig wl = small_wl("blackscholes");
  SocConfig sc = table2_soc();
  (void)cache.get(wl, sc);
  sc.core.store_load_forwarding = !sc.core.store_load_forwarding;
  (void)cache.get(wl, sc);
  sc.mem.detailed_dram = true;
  (void)cache.get(wl, sc);
  // Three distinct keys -> three baseline runs, no stale reuse. (Whether the
  // knobs move cycles on a tiny fully-warmed trace is workload-dependent;
  // the contract under test is that the key separates them — the stlf and
  // memory-model ablations rely on it at full trace length.)
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace fg::soc
