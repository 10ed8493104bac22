// Shared scaffolding for the paper-reproduction benchmarks. Each bench
// binary regenerates one table or figure: it registers the relevant
// (workload × SoC-config) simulation points here, and sweep_main runs the
// selected ones as one api::SimSession across FG_JOBS worker threads;
// google-benchmark then reports each point's precomputed result (counters +
// the point's own wall clock via manual time), and the summary prints the
// geomean slowdowns the way the figures report them, plus sweep wall clock
// and baseline-cache hit/miss counters.
//
// Results are independent of FG_JOBS: every point is a fully deterministic,
// self-contained simulation, and the session returns results in point
// order (see src/api/session.h).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/api/session.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/soc/figures.h"

namespace fgbench {

using namespace fg;  // NOLINT: bench-local convenience

inline const std::vector<std::string>& workloads() {
  return soc::paper_workloads();
}

/// Every point this bench binary registered, in registration order, with
/// its summary series ("" = not summarized) and its result slot (executed
/// == false unless sweep_main selected and ran it).
struct Registry {
  std::vector<api::GridPoint> points;
  std::vector<std::string> series;
  std::vector<api::RunOutcome> results;
};

inline Registry& registry() {
  static Registry reg;
  return reg;
}

inline trace::WorkloadConfig make_wl(
    const std::string& name,
    std::vector<std::pair<trace::AttackKind, u32>> attacks = {}) {
  return soc::paper_workload(name, soc::default_trace_len(),
                             std::move(attacks));
}

/// Declarative starting point for a bench experiment: Table II SoC (no
/// kernels deployed yet), the named workload at the bench trace length with
/// warmup = one tenth, plus an optional attack plan. Benches mutate the
/// spec (deployments, knob overrides) and hand it to register_spec — every
/// bench point is an ExperimentSpec first and a simulation second.
inline api::ExperimentSpec make_spec(
    const std::string& workload,
    std::vector<std::pair<trace::AttackKind, u32>> attacks = {}) {
  api::ExperimentSpec s;
  s.workload = make_wl(workload, std::move(attacks));
  s.soc = soc::table2_soc();
  return s;
}

/// Extra per-point reporting hook: fill benchmark counters from the result.
using Reporter =
    std::function<void(benchmark::State&, const api::RunOutcome&)>;

/// Registers the declarative ExperimentSpec, named `name`, as one point of
/// this binary (serializable with api::spec_to_json, runnable standalone
/// with `fgsim run`) AND a google-benchmark entry that reports its
/// (precomputed) result. The benchmark's reported time is the point's own
/// wall clock from the parallel run; the slowdown counter appears whenever
/// the baseline ran.
inline void register_spec(std::string name, std::string series,
                          api::ExperimentSpec spec, Reporter extra = {}) {
  Registry& reg = registry();
  const size_t idx = reg.points.size();
  benchmark::RegisterBenchmark(
      name.c_str(),
      [idx, extra](benchmark::State& st) {
        const api::RunOutcome& r = registry().results[idx];
        for (auto _ : st) {
          st.SetIterationTime(r.wall_ms / 1000.0);
          benchmark::DoNotOptimize(r.result.cycles);
        }
        if (r.baseline_cycles > 0) st.counters["slowdown"] = r.slowdown;
        if (extra) extra(st, r);
      })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  spec.name = name;
  reg.points.push_back(api::GridPoint{std::move(name), std::move(spec)});
  reg.series.push_back(std::move(series));
  reg.results.emplace_back();
}

/// Indices of the registered points --benchmark_filter selects — same
/// partial-match semantics and the same POSIX-extended grammar
/// google-benchmark compiles the filter with (std::regex_constants::extended
/// in its re.h), including the leading '-' negation. On a regex std::regex
/// rejects, every point is selected — a filtered-out benchmark then merely
/// ignores its result.
inline std::vector<u32> select_points(std::string filter) {
  std::function<bool(const std::string&)> keep;
  if (!filter.empty() && filter != "all") {
    bool negate = false;
    if (filter[0] == '-') {
      negate = true;
      filter.erase(0, 1);
    }
    try {
      const std::regex re(filter, std::regex_constants::extended);
      keep = [re, negate](const std::string& name) {
        // google-benchmark matches against the *decorated* name every
        // register_spec entry gets (->Iterations(1)->UseManualTime());
        // match the same string or anchored filters would diverge.
        return std::regex_search(name + "/iterations:1/manual_time", re) !=
               negate;
      };
    } catch (const std::regex_error&) {
    }
  }
  const std::vector<api::GridPoint>& points = registry().points;
  std::vector<u32> chosen;
  for (u32 i = 0; i < points.size(); ++i) {
    if (!keep || keep(points[i].name)) chosen.push_back(i);
  }
  return chosen;
}

/// Prints per-series geomean slowdowns plus the sweep wall clock, the
/// parallel speedup vs. the per-point sum, and baseline-cache hit/miss
/// counters.
inline void print_summary(const char* title, api::SimSession& session,
                          u32 jobs) {
  const Registry& reg = registry();
  std::printf("\n=== %s: geomean slowdowns ===\n", title);
  std::map<std::string, std::vector<double>> by_series;
  double serial_ms = 0.0;
  for (size_t i = 0; i < reg.points.size(); ++i) {
    const api::RunOutcome& r = reg.results[i];
    serial_ms += r.wall_ms;
    if (!r.executed || reg.series[i].empty() || r.baseline_cycles == 0) {
      continue;
    }
    by_series[reg.series[i]].push_back(r.slowdown);
  }
  for (const auto& [series, values] : by_series) {
    std::printf("  %-36s %6.3f  (n=%zu)\n", series.c_str(), geomean(values),
                values.size());
  }
  const double wall_ms = session.wall_ms();
  std::printf(
      "sweep: %zu/%zu points on %u jobs (%u workers), wall %.2f s "
      "(serial-equivalent %.2f s, est. speedup %.2fx)\n",
      session.n_points(), reg.points.size(), jobs, session.workers(),
      wall_ms / 1000.0, serial_ms / 1000.0,
      wall_ms > 0.0 ? serial_ms / wall_ms : 0.0);
  const soc::BaselineCache& cache = session.baseline_cache();
  std::printf(
      "baseline cache: %llu hits, %llu misses, %llu in-flight waits\n",
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()),
      static_cast<unsigned long long>(cache.inflight_waits()));
}

/// Standard bench main: run the selected points as one SimSession, then let
/// google-benchmark report the per-point results, then print the summary.
/// Google-benchmark's selection flags are honored before any simulation
/// runs: --benchmark_list_tests skips the sweep entirely, and
/// --benchmark_filter restricts it to matching points (select_points).
/// `cfg.with_baseline = false` skips the slowdown on every point (benches
/// that plot latency or energy, not overhead).
inline int sweep_main(int argc, char** argv, const char* title,
                      api::SessionConfig cfg = {}) {
  bool list_only = false;
  std::string filter;
  // Falsy spellings google-benchmark's IsTruthyFlagValue accepts; anything
  // else (including a bare flag) means "list". Diverging here would skip
  // the sweep while google-benchmark still runs the benchmarks.
  const auto is_falsy = [](std::string v) {
    for (char& ch : v) ch = static_cast<char>(std::tolower(ch));
    return v == "0" || v == "false" || v == "f" || v == "no" || v == "n" ||
           v == "off";
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0 &&
        (argv[i][22] == '\0' || argv[i][22] == '=')) {
      list_only = argv[i][22] != '=' || !is_falsy(argv[i] + 23);
    } else if (std::strncmp(argv[i], "--benchmark_filter=", 19) == 0) {
      filter = argv[i] + 19;
    }
  }
  benchmark::Initialize(&argc, argv);
  Registry& reg = registry();
  const std::vector<u32> chosen =
      list_only ? std::vector<u32>{} : select_points(filter);
  std::vector<api::GridPoint> grid;
  grid.reserve(chosen.size());
  for (const u32 i : chosen) grid.push_back(reg.points[i]);
  api::SimSession session(std::move(grid), cfg);
  const std::vector<api::RunOutcome>& out = session.run_all();
  for (size_t k = 0; k < chosen.size(); ++k) reg.results[chosen[k]] = out[k];
  benchmark::RunSpecifiedBenchmarks();
  if (!list_only && title != nullptr) {
    print_summary(title, session,
                  cfg.jobs > 0 ? cfg.jobs : ThreadPool::default_jobs());
  }
  return 0;
}

}  // namespace fgbench
