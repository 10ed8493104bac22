// Simulator-speed tracker: emits BENCH_sim_speed.json so the performance
// trajectory of the simulator itself is measured, not guessed.
//
// Measurements:
//  1. Single-thread hot-loop speed — simulated fast-domain cycles per wall
//     second (and committed instructions per second) for a light (PMC) and a
//     heavy (ASan) kernel deployment on blackscholes, plus the
//     memory/stall-bound memstall config (detailed DRAM + PTW). Each config
//     also runs under the stepped FG_CYCLE_EXACT reference loop (the ratio
//     is the event-driven scheduler's speedup). The two legs are timed
//     best-of-3 INTERLEAVED — each round times both legs once — so one cold
//     or contended stretch cannot poison a single mode's trajectory; both
//     legs' outcomes must be bit-identical (a mismatch fails the tool).
//  2. The Figure-10 sweep grid executed serially (jobs=1) and with FG_JOBS
//     workers: wall clock for each, honest parallel speedup and efficiency.
//     Timed best-of-3 interleaved as well: the quick grid runs in a fraction
//     of a second, short enough for one contended stretch to decide it.
//  3. A bit-identity audit: every parallel outcome (the full StatSnapshot
//     plus the baseline cycles) must equal its serial counterpart, byte for
//     byte. A mismatch makes the tool exit non-zero.
//  4. A cycle-accounting report from the scheduler (stepped vs skipped
//     cycles, skip-length histogram, per-domain bounds) so future perf work
//     can see where simulated time goes.
//
// The JSON keeps a `runs` history: each invocation appends one compact
// record (carrying forward the records already in the file), so the
// checked-in file tracks the per-PR perf trajectory.
//
// Usage: fgsim speed [--quick] [--jobs=N] [--trace-len=N] [--out=PATH] [--check]
//   --quick      small trace (20k insts) and the PMC+ASan subset of the
//                fig10 grid — for CI and smoke runs
//   --jobs=N     parallel worker count (default: FG_JOBS env, else hw)
//   --trace-len  per-point trace length (default: FG_TRACE_LEN env / 150k)
//   --out=PATH   output JSON path (default: BENCH_sim_speed.json)
//   --check      CI gate: also fail (exit 1) if the parallel sweep is slower
//                than serial while real parallelism was available, or if
//                event_speedup_pmc fell below the checked-in trajectory
//                (best same-mode runs[] record, with a noise tolerance)
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "tools/cli/cli.h"

#include "src/api/session.h"
#include "src/common/run_history.h"
#include "src/common/simctl.h"
#include "src/common/thread_pool.h"
#include "src/soc/figures.h"
#include "src/store/faultfs.h"

namespace {

using namespace fg;

struct HotLoopSpeed {
  std::string name;
  double sim_cycles_per_sec = 0.0;
  double insts_per_sec = 0.0;
  double wall_ms = 0.0;
  double exact_cycles_per_sec = 0.0;  // FG_CYCLE_EXACT reference loop
  double event_speedup = 0.0;         // event-driven vs stepped
  bool exact_identical = true;
  soc::SchedStats sched{};
};

/// The one bit-identity rule of every audit below.
bool outcomes_identical(const api::RunOutcome& a, const api::RunOutcome& b) {
  return a.baseline_cycles == b.baseline_cycles &&
         api::snapshots_equal(a.snapshot, b.snapshot);
}

/// Rounds of every best-of timing below.
constexpr int kRounds = 3;

HotLoopSpeed measure_hot_loop(const char* name,
                              const api::ExperimentSpec& spec) {
  HotLoopSpeed s;
  s.name = name;

  // Best-of-3 with both scheduler modes INTERLEAVED: each round times
  // serial and exact once, and each leg keeps its minimum. A contended or
  // cold stretch of wall clock hits both legs of that round equally instead
  // of poisoning one mode's entire timing block — which is exactly how a
  // single bad run once recorded a 2.67x "speedup" in the checked-in
  // trajectory. The mode flag is restored afterwards (a user-set
  // FG_CYCLE_EXACT=1 must still govern the sweep).
  const bool entry_mode = cycle_exact();
  api::RunOutcome r, rx;
  double exact_ms = 1e300;
  s.wall_ms = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    set_cycle_exact(false);
    r = api::run_spec(spec);
    s.wall_ms = std::min(s.wall_ms, r.wall_ms);
    set_cycle_exact(true);
    rx = api::run_spec(spec);
    exact_ms = std::min(exact_ms, rx.wall_ms);
    // Bit-identity is checked every round, not just once: a mode that is
    // only intermittently divergent must still fail the tool.
    if (!outcomes_identical(r, rx)) s.exact_identical = false;
  }
  set_cycle_exact(entry_mode);

  s.sched = r.result.sched;
  if (s.wall_ms > 0.0) {
    s.sim_cycles_per_sec =
        static_cast<double>(r.result.cycles) / (s.wall_ms / 1000.0);
    s.insts_per_sec =
        static_cast<double>(r.result.committed) / (s.wall_ms / 1000.0);
  }
  if (exact_ms > 0.0) {
    s.exact_cycles_per_sec =
        static_cast<double>(rx.result.cycles) / (exact_ms / 1000.0);
    s.event_speedup = exact_ms / s.wall_ms;
  }
  return s;
}

void print_sched_report(const char* name, const soc::SchedStats& s) {
  std::printf(
      "sched %-14s: %llu stepped + %llu skipped cycles (%.1f%% skipped in "
      "%llu skips), slow ticks %llu run / %llu skipped\n",
      name, static_cast<unsigned long long>(s.cycles_stepped),
      static_cast<unsigned long long>(s.cycles_skipped),
      100.0 * s.skipped_fraction(), static_cast<unsigned long long>(s.skips),
      static_cast<unsigned long long>(s.slow_ticks_run),
      static_cast<unsigned long long>(s.slow_ticks_skipped));
  std::printf("      skip lengths [1,2-3,...,>=2048]:");
  for (const u64 h : s.skip_len_hist) {
    std::printf(" %llu", static_cast<unsigned long long>(h));
  }
  std::printf(
      "  bounds core/slow/cap: %llu/%llu/%llu, drain windows %llu, "
      "back-pressure windows %llu\n",
      static_cast<unsigned long long>(s.bound_core),
      static_cast<unsigned long long>(s.bound_slow),
      static_cast<unsigned long long>(s.bound_cap),
      static_cast<unsigned long long>(s.drain_windows),
      static_cast<unsigned long long>(s.backpressure_windows));
}

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char small[1024];
  const int n = std::vsnprintf(small, sizeof(small), fmt, ap);
  va_end(ap);
  if (n < 0) return;
  if (static_cast<size_t>(n) < sizeof(small)) {
    out->append(small, static_cast<size_t>(n));
    return;
  }
  // Carried-forward histories can exceed the stack buffer.
  std::vector<char> big(static_cast<size_t>(n) + 1);
  va_start(ap, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, ap);
  va_end(ap);
  out->append(big.data(), static_cast<size_t>(n));
}

u64 arg_u64(const char* arg, const char* prefix, u64 fallback) {
  const size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return fallback;
  return std::strtoull(arg + n, nullptr, 10);
}

}  // namespace

namespace fg::cli {

int speed_main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  u32 jobs = ThreadPool::default_jobs();
  u64 trace_len = soc::default_trace_len();
  std::string out_path = "BENCH_sim_speed.json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<u32>(arg_u64(argv[i], "--jobs=", jobs));
    } else if (std::strncmp(argv[i], "--trace-len=", 12) == 0) {
      trace_len = arg_u64(argv[i], "--trace-len=", trace_len);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: fgsim speed [--quick] [--jobs=N] [--trace-len=N] "
                   "[--out=PATH] [--check]\n");
      return 2;
    }
  }
  if (quick) trace_len = std::min<u64>(trace_len, 20'000);

  // History preflight BEFORE any measurement. The runs[] history is the
  // whole point of the checked-in JSON; under --check a missing, unreadable
  // or runs-less file is a CI misconfiguration that must fail loudly and
  // immediately (it used to exit 0 and silently start a fresh history), and
  // an unwritable output path must not be discovered only after minutes of
  // sweeping.
  std::string history;
  const HistoryStatus hist_status = load_runs_history(out_path, &history);
  if (check && hist_status != HistoryStatus::kOk) {
    std::fprintf(stderr,
                 "FAIL: --check requires an existing runs[] history at %s "
                 "(status: %s). Run once without --check to start a history, "
                 "or fix the path.\n",
                 out_path.c_str(), history_status_name(hist_status));
    return kExitIo;
  }
  if (check) {
    FILE* probe = std::fopen(out_path.c_str(), "r+");
    if (probe == nullptr) {
      std::fprintf(stderr, "FAIL: --check output path %s is not writable\n",
                   out_path.c_str());
      return kExitIo;
    }
    std::fclose(probe);
  }
  if (!check && hist_status == HistoryStatus::kMalformed) {
    // Recovery must be loud: the file exists but carries no runs[] history
    // (truncated write, merge damage). Quarantine the evidence and start
    // fresh rather than silently overwriting it.
    const std::string moved = quarantine_history(out_path);
    std::fprintf(stderr,
                 "WARNING: %s exists but has no runs[] history (corrupt?); "
                 "%s%s; starting a fresh history\n",
                 out_path.c_str(),
                 moved.empty() ? "could not move it aside"
                               : "moved it aside to ",
                 moved.c_str());
  }

  const u32 hw = usable_cpus();
  std::printf("fgsim speed: trace_len=%llu jobs=%u (hw %u)%s\n",
              static_cast<unsigned long long>(trace_len), jobs, hw,
              quick ? " (quick)" : "");

  // 1) Single-thread hot-loop speed, event-driven vs stepped reference.
  // Three configs: a light (PMC) and a heavy (ASan) kernel deployment on
  // the compute-bound blackscholes trace, plus the memory/stall-bound
  // memstall config (detailed DRAM + PTW, serialized pointer chasing) —
  // the workload class the wide-horizon skip paths exist for, and the one
  // the `event_speedup >= 1.5` acceptance bar is measured on.
  std::vector<HotLoopSpeed> hot;
  {
    api::ExperimentSpec spec;
    spec.workload = soc::paper_workload("blackscholes", trace_len);
    spec.soc = soc::table2_soc();
    spec.soc.kernels = {soc::deploy(kernels::KernelKind::kPmc, 4)};
    hot.push_back(measure_hot_loop("pmc_4ucores", spec));
    spec.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
    hot.push_back(measure_hot_loop("asan_4ucores", spec));
    spec.workload = soc::memstall_workload(trace_len);
    spec.soc = soc::memstall_soc();
    spec.soc.kernels = {soc::deploy(kernels::KernelKind::kPmc, 4)};
    hot.push_back(measure_hot_loop("memstall_4ucores", spec));
  }
  u32 mismatches = 0;
  for (const HotLoopSpeed& s : hot) {
    std::printf(
        "hot loop %-14s: %8.2f M sim-cycles/s (%.1f ms), exact %8.2f M "
        "(event speedup %.2fx) %s\n",
        s.name.c_str(), s.sim_cycles_per_sec / 1e6, s.wall_ms,
        s.exact_cycles_per_sec / 1e6, s.event_speedup,
        s.exact_identical ? "" : "EXACT-MISMATCH");
    print_sched_report(s.name.c_str(), s.sched);
    if (!s.exact_identical) ++mismatches;
  }

  // 2) Fig. 10 sweep, serial and parallel — the same grid
  // bench_fig10_scalability registers (api::fig10_points) — best-of-3 with
  // the legs interleaved, as for the hot loops. Each round is audited (3).
  std::unique_ptr<api::SimSession> serial, parallel;
  double serial_ms = 1e300, parallel_ms = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    serial = std::make_unique<api::SimSession>(
        api::fig10_points(trace_len, quick), api::SessionConfig{.jobs = 1});
    serial->run_all();
    serial_ms = std::min(serial_ms, serial->wall_ms());
    parallel = std::make_unique<api::SimSession>(
        api::fig10_points(trace_len, quick), api::SessionConfig{.jobs = jobs});
    parallel->run_all();
    parallel_ms = std::min(parallel_ms, parallel->wall_ms());
    // 3) Bit-identity audit: parallel vs serial, point by point.
    for (size_t i = 0; i < parallel->n_points(); ++i) {
      if (!outcomes_identical(serial->results()[i], parallel->results()[i])) {
        std::fprintf(stderr, "MISMATCH at point %s\n",
                     parallel->points()[i].name.c_str());
        ++mismatches;
      }
    }
  }
  std::printf("fig10 sweep serial  : %zu points, %.2f s\n",
              serial->n_points(), serial_ms / 1000.0);
  // The session is the single owner of the jobs→workers capping rule.
  const u32 effective_workers = parallel->workers();
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  const double efficiency =
      effective_workers > 0 ? speedup / effective_workers : 0.0;
  std::printf(
      "fig10 sweep parallel: %zu points on %u jobs (%u workers), %.2f s "
      "(speedup %.2fx, efficiency %.2f)\n",
      parallel->n_points(), jobs, effective_workers, parallel_ms / 1000.0,
      speedup, efficiency);
  std::printf(
      "baseline cache      : %llu hits, %llu misses, %llu in-flight waits\n",
      static_cast<unsigned long long>(parallel->baseline_cache().hits()),
      static_cast<unsigned long long>(parallel->baseline_cache().misses()),
      static_cast<unsigned long long>(
          parallel->baseline_cache().inflight_waits()));
  std::printf("bit-identity audit  : %u mismatches over %zu points "
              "(parallel-vs-serial, event-vs-exact)\n",
              mismatches, parallel->n_points());

  // Aggregate sweep-wide scheduler accounting.
  soc::SchedStats sweep_sched{};
  for (const api::RunOutcome& o : parallel->results()) {
    sweep_sched.add(o.result.sched);
  }
  print_sched_report("fig10_sweep", sweep_sched);

  const bool bit_identical = mismatches == 0;
  // The parallel-regression gate only fires when parallelism was real: a
  // single-worker "parallel" run (1-core box) is serial plus noise.
  const bool parallel_regressed = effective_workers > 1 && speedup < 1.0;

  // Event-speedup trajectory gate: under --check, the measured
  // event_speedup_pmc may not fall below a tolerance of the best same-mode
  // (quick vs full) record in the checked-in history — the scheduler's
  // speedup trajectory only ratchets. Records that predate the field
  // (pre-v3) or ran the other mode are skipped, so the gate arms itself
  // only once a comparable record exists. The tolerance absorbs shared-CI
  // wall clock noise: even with best-of-5 timing the quick-mode ratio
  // (single-digit-millisecond loops) swings ~20% run-to-run on a loaded
  // box, and a real scheduler regression (skipping disabled, horizon gone
  // conservative) costs far more than 25% of the trajectory.
  constexpr double kSpeedupTolerance = 0.75;
  double best_prev_pmc = 0.0;
  for (const std::string& rec : split_run_records(history)) {
    bool rec_quick = false;
    double v = 0.0;
    if (run_record_flag(rec, "quick", &rec_quick) && rec_quick == quick &&
        run_record_number(rec, "event_speedup_pmc", &v)) {
      best_prev_pmc = std::max(best_prev_pmc, v);
    }
  }
  const bool speedup_regressed =
      best_prev_pmc > 0.0 &&
      hot[0].event_speedup < kSpeedupTolerance * best_prev_pmc;

  char stamp[32];
  {
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm);
  }
  std::string doc;
  appendf(&doc, "{\n");
  appendf(&doc, "  \"schema\": \"fireguard/sim_speed/v5\",\n");
  appendf(&doc, "  \"quick\": %s,\n", quick ? "true" : "false");
  appendf(&doc, "  \"trace_len\": %llu,\n",
               static_cast<unsigned long long>(trace_len));
  appendf(&doc, "  \"jobs\": %u,\n", jobs);
  appendf(&doc, "  \"effective_workers\": %u,\n", effective_workers);
  appendf(&doc, "  \"hot_loop\": [\n");
  for (size_t i = 0; i < hot.size(); ++i) {
    const soc::SchedStats& s = hot[i].sched;
    appendf(
        &doc,
        "    {\"config\": \"%s\", \"sim_cycles_per_sec\": %.0f, "
        "\"insts_per_sec\": %.0f, \"wall_ms\": %.2f, "
        "\"exact_sim_cycles_per_sec\": %.0f, \"event_speedup\": %.3f, "
        "\"cycles_skipped_pct\": %.2f, \"skips\": %llu}%s\n",
        hot[i].name.c_str(), hot[i].sim_cycles_per_sec, hot[i].insts_per_sec,
        hot[i].wall_ms, hot[i].exact_cycles_per_sec, hot[i].event_speedup,
        100.0 * s.skipped_fraction(), static_cast<unsigned long long>(s.skips),
        i + 1 < hot.size() ? "," : "");
  }
  appendf(&doc, "  ],\n");
  appendf(&doc, "  \"fig10_sweep\": {\n");
  appendf(&doc, "    \"points\": %zu,\n", parallel->n_points());
  appendf(&doc, "    \"serial_wall_s\": %.3f,\n", serial_ms / 1000.0);
  appendf(&doc, "    \"parallel_wall_s\": %.3f,\n", parallel_ms / 1000.0);
  appendf(&doc, "    \"speedup\": %.3f,\n", speedup);
  appendf(&doc, "    \"parallel_efficiency\": %.3f,\n", efficiency);
  appendf(&doc, "    \"baseline_cache_inflight_waits\": %llu,\n",
               static_cast<unsigned long long>(
                   parallel->baseline_cache().inflight_waits()));
  appendf(&doc, "    \"bit_identical\": %s\n",
               bit_identical ? "true" : "false");
  appendf(&doc, "  },\n");
  // The append goes through the same helper the regression tests exercise
  // (src/common/run_history.h), so the tested path IS the production path.
  // Schema v5 record (v3's field set). Old v2–v4 records in the
  // carried-forward history stay untouched (text-level append); readers
  // skip fields a record lacks (run_record_number).
  soc::SchedStats hot_sched{};
  for (const HotLoopSpeed& s : hot) hot_sched.add(s.sched);
  const auto& hist_sum = hot_sched.skip_len_hist;
  std::string hist_json = "[";
  for (size_t b = 0; b < hist_sum.size(); ++b) {
    hist_json += std::to_string(hist_sum[b]);
    if (b + 1 < hist_sum.size()) hist_json += ", ";
  }
  hist_json += "]";
  char record[1024];
  std::snprintf(
      record, sizeof(record),
      "{\"date\": \"%s\", \"quick\": %s, \"trace_len\": %llu, "
      "\"pmc_cycles_per_sec\": %.0f, \"asan_cycles_per_sec\": %.0f, "
      "\"memstall_cycles_per_sec\": %.0f, "
      "\"event_speedup_pmc\": %.3f, \"event_speedup_asan\": %.3f, "
      "\"event_speedup_memstall\": %.3f, \"skip_len_hist\": %s, "
      "\"sweep_speedup\": %.3f, \"bit_identical\": %s}",
      stamp, quick ? "true" : "false",
      static_cast<unsigned long long>(trace_len),
      hot[0].sim_cycles_per_sec, hot[1].sim_cycles_per_sec,
      hot[2].sim_cycles_per_sec, hot[0].event_speedup, hot[1].event_speedup,
      hot[2].event_speedup, hist_json.c_str(), speedup,
      bit_identical ? "true" : "false");
  appendf(&doc, "  \"runs\": [\n    %s\n  ]\n",
               append_run_record(history, record).c_str());
  appendf(&doc, "}\n");
  std::string werr;
  // Atomic temp+rename publish (fsync'd): a crash mid-write can never leave
  // a truncated BENCH_sim_speed.json that a later run would quarantine.
  if (!store::write_file_atomic(out_path, doc, &werr)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 werr.c_str());
    return kExitIo;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!bit_identical) return kExitFailure;
  if (check && parallel_regressed) {
    std::fprintf(stderr,
                 "FAIL: parallel sweep regressed (speedup %.3f < 1.0 with %u "
                 "workers)\n",
                 speedup, effective_workers);
    return kExitFailure;
  }
  if (check && speedup_regressed) {
    std::fprintf(stderr,
                 "FAIL: event_speedup_pmc %.3f fell below the checked-in "
                 "trajectory (best same-mode record %.3f, tolerance %.2f)\n",
                 hot[0].event_speedup, best_prev_pmc, kSpeedupTolerance);
    return kExitFailure;
  }
  return kExitOk;
}

}  // namespace fg::cli
