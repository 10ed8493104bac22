#include "src/soc/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/stats.h"
#include "src/soc/config_json.h"

namespace fg::soc {

SocConfig table2_soc() { return SocConfig{}; }

SocConfig memstall_soc() {
  SocConfig sc = table2_soc();
  sc.mem.detailed_dram = true;
  sc.mem.detailed_ptw = true;
  return sc;
}

trace::WorkloadConfig memstall_workload(u64 n_insts) {
  trace::WorkloadConfig wl;
  wl.profile = trace::profile_by_name("memstall");
  wl.seed = 42;
  wl.n_insts = n_insts;
  wl.warmup_insts = n_insts / 10;
  return wl;
}

KernelDeployment deploy(kernels::KernelKind kind, u32 n_engines,
                        kernels::ProgModel model, bool use_ha,
                        std::optional<core::SchedPolicy> policy) {
  KernelDeployment d;
  d.kind = kind;
  d.n_engines = n_engines;
  d.model = model;
  d.use_ha = use_ha;
  if (policy) {
    d.policy = *policy;
    d.policy_overridden = true;
  }
  return d;
}

// Strict parses: a malformed FG_TRACE_LEN / FG_ATTACKS aborts loudly
// instead of silently simulating the wrong experiment (src/common/env.h).
u64 default_trace_len() { return env_u64_or("FG_TRACE_LEN", 150'000); }
u32 default_attack_count() { return env_u32_or("FG_ATTACKS", 60); }

/// The regions a long-running instance of this workload would have resident
/// in L2/LLC: streaming buffers, hot globals, the live heap, code, and the
/// top of the stack. Functionally warming them removes the compulsory-miss
/// transient that a short trace window would otherwise be dominated by.
std::vector<std::pair<u64, u64>> default_warm_regions(
    const trace::WorkloadGen& gen, const trace::WorkloadProfile& p) {
  std::vector<std::pair<u64, u64>> v;
  v.push_back({trace::kStreamBase, trace::kStreamBase + p.stream_footprint});
  v.push_back({trace::kGlobalBase,
               trace::kGlobalBase + 8ull * std::max<u32>(1, p.global_hot_words)});
  const u64 heap_len =
      std::min<u64>(4ull << 20, static_cast<u64>(p.live_target) *
                                        (p.mean_alloc_size * 5 / 4 + 64) +
                                    (64u << 10));
  v.push_back({trace::kHeapBase, trace::kHeapBase + heap_len});
  v.push_back({gen.text_lo(), gen.text_hi()});
  v.push_back({trace::kStackBase - (64u << 10), trace::kStackBase});
  return v;
}

namespace {

double ipc_of(Cycle cycles, u64 committed) {
  return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                : 0.0;
}

}  // namespace

RunResult run_bare_core(const trace::WorkloadConfig& wl, const SocConfig& sc,
                        std::optional<baseline::SwScheme> scheme) {
  trace::WorkloadGen gen(wl);
  std::optional<baseline::InstrumentedSource> inst;
  if (scheme) inst.emplace(gen, *scheme);
  mem::MemHierarchy mem(sc.mem);
  for (const auto& [lo, hi] : default_warm_regions(gen, wl.profile)) {
    mem.warm_region(lo, hi);
  }
  mem.reset_stats();
  trace::TraceSource& src = inst ? static_cast<trace::TraceSource&>(*inst) : gen;
  boom::BoomCore core(sc.core, mem, src);
  core.run_to_end(nullptr, sc.max_fast_cycles);

  RunResult r;
  r.cycles = core.now();
  r.committed = core.stats().committed;
  r.ipc = ipc_of(r.cycles, r.committed);
  if (inst) r.expansion = inst->expansion();
  return r;
}

Cycle run_baseline_cycles(const trace::WorkloadConfig& wl, const SocConfig& sc) {
  return run_bare_core(wl, sc).cycles;
}

RunResult run_fireguard(
    const trace::WorkloadConfig& wl, SocConfig sc,
    const std::function<void(const Soc&, u64 planned_attacks)>& inspect) {
  trace::WorkloadGen gen(wl);
  sc.kparams.text_lo = gen.text_lo();
  sc.kparams.text_hi = gen.text_hi();
  sc.warm_regions = default_warm_regions(gen, wl.profile);
  Soc soc(sc, gen);
  soc.run();

  RunResult r;
  r.cycles = soc.core_cycles();
  r.committed = soc.committed();
  r.ipc = ipc_of(r.cycles, r.committed);
  r.stall_fractions = soc.stall_fractions();
  r.detections = soc.detections();
  r.spurious = soc.spurious_detections();
  r.packets = soc.total_packets_processed();
  r.planned_attacks = gen.planned_attacks();
  r.sched = soc.sched_stats();
  if (inspect) inspect(soc, r.planned_attacks);
  return r;
}

RunResult run_software(const trace::WorkloadConfig& wl, baseline::SwScheme scheme,
                       const SocConfig& sc) {
  return run_bare_core(wl, sc, scheme);
}

Cycle BaselineCache::get(const trace::WorkloadConfig& wl, const SocConfig& sc,
                         bool* ran_baseline) {
  // Canonical serialized baseline-relevant sub-spec (config_json.h): the
  // key IS the spec, so two points share a baseline exactly when their
  // serialized baseline-relevant configuration is identical.
  const std::string key = baseline_subspec_json(wl, sc);

  Entry* e = nullptr;
  {
    // Map access only — the lock is released before any simulation runs, so
    // one key's miss never blocks other keys (or other sweeps' points).
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, std::make_unique<Entry>()).first;
    }
    e = it->second.get();
  }
  // Entries are never erased, so `e` stays valid outside the lock; the
  // once_flag serializes the actual baseline run per key.
  const bool wait_inflight = !e->done.load(std::memory_order_acquire);
  bool ran = false;
  std::call_once(e->once, [&] {
    e->cycles = run_baseline_cycles(wl, sc);
    e->done.store(true, std::memory_order_release);
    ran = true;
  });
  if (ran) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    // The entry existed but its baseline had not finished when we arrived:
    // this call blocked on another worker's in-flight run.
    if (wait_inflight) inflight_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (ran_baseline != nullptr) *ran_baseline = ran;
  return e->cycles;
}

double geomean_slowdown(const std::vector<double>& slowdowns) {
  return geomean(slowdowns);
}

}  // namespace fg::soc
