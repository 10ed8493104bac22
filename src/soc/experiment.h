// Experiment harness: one-call runs for the three system variants the paper
// compares — unmonitored baseline, FireGuard, and software instrumentation —
// on identical workload traces and identical main-core hardware.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/baseline/instrument.h"
#include "src/soc/soc.h"
#include "src/trace/workload.h"

namespace fg::soc {

/// Table II configuration (the library defaults already encode it; this
/// names it explicitly for benches and tests).
SocConfig table2_soc();

/// Build a deployment. Passing `policy` sets BOTH the policy and
/// `policy_overridden` — assigning the field by hand risked the
/// inconsistent (policy set, flag false) state, which the allocator would
/// silently ignore; every in-tree caller now goes through here or the spec
/// layer (src/api), both of which keep the pair consistent.
KernelDeployment deploy(
    kernels::KernelKind kind, u32 n_engines,
    kernels::ProgModel model = kernels::ProgModel::kHybrid,
    bool use_ha = false,
    std::optional<core::SchedPolicy> policy = std::nullopt);

/// Table II with the detailed DRAM and page-table-walk timing models on —
/// the memory/stall-bound configuration the event scheduler's skip paths
/// are measured and audited on (fgperf's hotloop_memstall, `fgsim speed`,
/// skip-stress tests).
SocConfig memstall_soc();

/// The synthetic memstall workload (trace profile "memstall") at `n_insts`,
/// fixed seed 42, warmup one tenth — the stall-bound counterpart of
/// soc::paper_workload.
trace::WorkloadConfig memstall_workload(u64 n_insts);

/// Dynamic trace length for experiments: FG_TRACE_LEN env var, else 150000.
u64 default_trace_len();

/// Number of injected attacks per run: FG_ATTACKS env var, else 60
/// (the paper injects 50-100 per workload).
u32 default_attack_count();

struct RunResult {
  Cycle cycles = 0;
  u64 committed = 0;
  double ipc = 0.0;
  std::array<double, 5> stall_fractions{};
  std::vector<DetectionRecord> detections;
  u64 spurious = 0;
  u64 packets = 0;
  u64 planned_attacks = 0;
  double expansion = 1.0;  // software schemes: dynamic instruction expansion
  /// Scheduler diagnostics (FireGuard runs only). Excluded from every
  /// bit-identity comparison: the exact reference loop skips nothing.
  SchedStats sched{};
};

/// The regions a long-running instance of this workload would have resident
/// in L2/LLC (streaming buffers, hot globals, live heap, code, stack top).
/// Shared by run_baseline_cycles / run_fireguard / run_software and the
/// fuzzing subsystem's scenario runner, so all of them warm identically.
std::vector<std::pair<u64, u64>> default_warm_regions(
    const trace::WorkloadGen& gen, const trace::WorkloadProfile& profile);

/// Run the bare main core, unmonitored or instrumented by `scheme`: build
/// the workload, warm its default regions, zero the counters, run to the
/// end. The one construction path of every baseline and software run.
RunResult run_bare_core(const trace::WorkloadConfig& wl, const SocConfig& sc,
                        std::optional<baseline::SwScheme> scheme = std::nullopt);

/// Unmonitored baseline cycles for a workload (the slowdown denominator).
Cycle run_baseline_cycles(const trace::WorkloadConfig& wl, const SocConfig& sc);

/// Run FireGuard with the deployments in `sc.kernels` (PMC text bounds are
/// derived from the workload image automatically). `inspect`, when given,
/// sees the finished SoC and the planned attack count before both are
/// destroyed (the spec layer takes its stat snapshot there).
RunResult run_fireguard(
    const trace::WorkloadConfig& wl, SocConfig sc,
    const std::function<void(const Soc&, u64 planned_attacks)>& inspect = {});

/// Run a software-instrumented variant on the bare core.
RunResult run_software(const trace::WorkloadConfig& wl, baseline::SwScheme scheme,
                       const SocConfig& sc);

/// Memoizes baseline cycles per (workload, baseline-relevant SoC config) so
/// sweeps do not recompute them. Thread-safe with per-key once-semantics.
///
/// The map mutex is held only for the entry look-up/insert — never across a
/// baseline simulation, so a miss on one key cannot serialize the whole
/// sweep behind it. Concurrent misses on the *same* key block on that key's
/// once_flag (one thread runs the baseline, the rest wait for its result);
/// misses on different keys run fully in parallel. `inflight_waits()`
/// counts the callers that had to wait on another worker's in-flight run —
/// the sweep summary prints it so lost parallelism is visible, not guessed.
class BaselineCache {
 public:
  /// `ran_baseline`, if given, is set to whether THIS call executed the
  /// baseline run (as opposed to reusing — or waiting for — another's).
  Cycle get(const trace::WorkloadConfig& wl, const SocConfig& sc,
            bool* ran_baseline = nullptr);

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  u64 inflight_waits() const {
    return inflight_waits_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::once_flag once;
    std::atomic<bool> done{false};
    Cycle cycles = 0;
  };

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> cache_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> inflight_waits_{0};
};

/// Convenience: geometric-mean slowdown over per-workload slowdowns.
double geomean_slowdown(const std::vector<double>& slowdowns);

}  // namespace fg::soc
