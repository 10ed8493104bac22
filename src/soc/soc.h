// Full-system composition: BOOM main core + FireGuard frontend (fast clock
// domain) and fabric + analysis engines (slow clock domain), per Table II.
//
// The reference model advances one fast cycle at a time; every `freq_ratio`
// fast cycles the slow domain ticks once (multicast delivery from the CDC,
// µcore execution, output-queue drain into the mesh NoC, NoC deliveries).
// All back-pressure is physical: a full structure anywhere in the chain
// eventually refuses commit lanes and stalls the main core.
//
// By default `run()` drives that model with an event-driven scheduler: each
// component exposes a next-event horizon (BOOM fixed point, CDC handshake
// settle, µcore stall end, NoC arrival), and whenever the fast domain is
// provably dead until a target cycle, the loop jumps there in one step —
// bit-identical to stepping, because only cycles in which nothing can
// change are skipped and their per-cycle stall accounting is charged in
// bulk. `run()` picks one of three targets (the core's horizon, a frozen
// core's horizon under back-pressure, or the post-completion slow horizon
// capped by grace and backstop) and one walker, `jump_to`, carries the slow
// domain across the boundaries inside every window. FG_CYCLE_EXACT=1 forces
// the stepped reference loop (the differential suite compares the two).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/boom/core.h"
#include "src/core/fabric.h"
#include "src/core/frontend.h"
#include "src/kernels/ha.h"
#include "src/kernels/kernel.h"
#include "src/mem/hierarchy.h"
#include "src/trace/workload.h"
#include "src/ucore/ucore.h"

namespace fg::soc {

struct KernelDeployment {
  kernels::KernelKind kind = kernels::KernelKind::kPmc;
  u32 n_engines = 4;                                  // µcores for this kernel
  bool use_ha = false;                                // one HA instead
  kernels::ProgModel model = kernels::ProgModel::kHybrid;
  /// Scheduling policy; defaults to block mode for the shadow stack (message
  /// locality) and round-robin for everything else.
  core::SchedPolicy policy = core::SchedPolicy::kRoundRobin;
  bool policy_overridden = false;
};

struct SocConfig {
  boom::CoreConfig core{};
  mem::HierarchyConfig mem{};
  core::FrontendConfig frontend{};
  ucore::UCoreConfig ucore{};
  kernels::KernelParams kparams{};
  std::vector<KernelDeployment> kernels;
  /// Shared L2 behind the analysis engines' private caches (timing only).
  mem::CacheConfig engine_l2{512 * 1024, 8, 64, 4, 12};
  u32 noc_hop_latency = 2;
  u64 max_fast_cycles = 400'000'000;
  double fast_ghz = 3.2;  // Table II main-core clock (latency conversion)

  /// Measurement starts after this many committed instructions (predictor /
  /// cache warmup; the slowdown is computed on the post-warmup window).
  u64 warmup_insts = 0;
  /// Regions functionally pre-warmed into L2/LLC (and their shadow into the
  /// engines' shared L2) before the run.
  std::vector<std::pair<u64, u64>> warm_regions;
};

struct DetectionRecord {
  u32 attack_id = 0;
  u32 engine = 0;
  Cycle commit_fast = 0;
  Cycle detect_fast = 0;
  double latency_ns = 0.0;
};

/// Cycle-accounting for the event-driven scheduler: where simulated time
/// went (stepped vs. bulk-skipped), how long the skips were, and which
/// domain's horizon bounded them. Diagnostic only — never part of the
/// bit-identity comparison (the exact loop steps every cycle by design).
struct SchedStats {
  u64 cycles_stepped = 0;
  u64 cycles_skipped = 0;
  u64 skips = 0;  // bulk-skip events
  /// Skip lengths, log2-bucketed: [1], [2,3], [4,7], ... [2048,inf).
  std::array<u64, 12> skip_len_hist{};
  u64 slow_ticks_run = 0;
  u64 slow_ticks_skipped = 0;
  /// Drain windows: core-horizon jumps that ran interior slow-domain
  /// boundaries (real ticks and/or elided stretches) inside the window.
  u64 drain_windows = 0;
  /// Back-pressure windows: stretches of frozen fast cycles (lane 0 refused,
  /// arbiter blocked on a full CDC) jumped to the core's horizon or the
  /// first slow tick that frees the CDC. Their cycles count as skipped.
  u64 backpressure_windows = 0;
  /// Which horizon bounded each skip (core fixed point, slow-domain event,
  /// or an end-of-run cap: max cycles / grace / drain backstop).
  u64 bound_core = 0;
  u64 bound_slow = 0;
  u64 bound_cap = 0;

  /// Sum another run's accounting into this one (every counter).
  void add(const SchedStats& o) {
    cycles_stepped += o.cycles_stepped;
    cycles_skipped += o.cycles_skipped;
    skips += o.skips;
    for (size_t b = 0; b < skip_len_hist.size(); ++b) {
      skip_len_hist[b] += o.skip_len_hist[b];
    }
    slow_ticks_run += o.slow_ticks_run;
    slow_ticks_skipped += o.slow_ticks_skipped;
    drain_windows += o.drain_windows;
    backpressure_windows += o.backpressure_windows;
    bound_core += o.bound_core;
    bound_slow += o.bound_slow;
    bound_cap += o.bound_cap;
  }

  /// Account one bulk skip of `delta` > 0 fast cycles.
  void note_skip(u64 delta) {
    cycles_skipped += delta;
    ++skips;
    ++skip_len_hist[std::min<size_t>(skip_len_hist.size() - 1,
                                     std::bit_width(delta) - 1)];
  }

  double skipped_fraction() const {
    const u64 total = cycles_stepped + cycles_skipped;
    return total ? static_cast<double>(cycles_skipped) / static_cast<double>(total)
                 : 0.0;
  }
};

class Soc final : public boom::CommitSink, public core::QueueStatus {
 public:
  Soc(const SocConfig& cfg, trace::TraceSource& src);

  /// Run to completion (trace exhausted, pipelines and queues drained).
  void run();

  // --- boom::CommitSink (delegates to the FireGuard frontend; the one-line
  // delegations are inline: they run every cycle / every commit lane) ---
  bool can_commit(u32 lane, const trace::TraceInst& ti) override {
    return frontend_->can_commit(lane, ti);
  }
  void on_commit(u32 lane, const trace::TraceInst& ti, Cycle now) override;
  u32 prf_ports_preempted() override {
    return frontend_->prf_ports_preempted();
  }

  // --- core::QueueStatus (engine message-queue occupancy) ---
  bool engine_queue_full(u32 engine) const override;
  size_t engine_queue_free(u32 engine) const override;

  /// Main-core cycles to finish the post-warmup window (slowdown numerator).
  Cycle core_cycles() const {
    const Cycle w = core_->warmup_cycle();
    return core_done_cycle_ > w ? core_done_cycle_ - w : core_done_cycle_;
  }
  Cycle total_core_cycles() const { return core_done_cycle_; }
  u64 committed() const { return core_->stats().committed; }

  /// All kernel detections matched to injected attacks, with latencies.
  /// Matched and spurious counts come from one shared match pass (computed
  /// lazily, cached until the simulation advances).
  std::vector<DetectionRecord> detections() const;
  u64 spurious_detections() const;

  /// Fraction of all fast cycles each StallCause blocked commit (Figure 9).
  std::array<double, 5> stall_fractions() const;

  const SchedStats& sched_stats() const { return sched_; }

  const boom::BoomCore& core() const { return *core_; }
  const core::Frontend& frontend() const { return *frontend_; }
  const core::NocMesh& noc() const { return *noc_; }
  size_t n_engines() const { return engines_.size(); }
  const ucore::UCore* engine_ucore(u32 i) const { return engines_[i].ucore.get(); }
  const kernels::HardwareAccelerator* engine_ha(u32 i) const {
    return engines_[i].ha.get();
  }
  u64 total_packets_processed() const;

 private:
  struct Engine {
    std::unique_ptr<ucore::UCore> ucore;
    std::unique_ptr<kernels::HardwareAccelerator> ha;
    u32 deployment = 0;

    bool input_full() const;
    size_t input_free() const;
    void push_input(const core::Packet& p);
    void tick(Cycle now_slow);
    bool quiescent() const;
    /// No observable progress possible (see UCore::idle); safe to skip tick.
    bool idle() const;
    /// First slow cycle >= `now_slow` at which this engine (or the fabric
    /// draining its output queue) can change state; kNoEvent if never.
    Cycle next_event(Cycle now_slow) const;
    const std::vector<ucore::Detection>& detections() const;
  };

  void build_engines(trace::TraceSource& src);
  void apply_heap_event(const trace::TraceInst& ti);
  void slow_tick(Cycle now_slow);
  /// Earliest slow cycle >= `now_slow` at which slow_tick would not be a
  /// structural no-op (CDC handshake settles, a µcore wakes or can execute,
  /// an output queue owes the fabric a drain, a mesh message arrives). A
  /// CDC head that can pop now answers in O(1), before the memoized rest.
  Cycle slow_next_event(Cycle now_slow) const;
  /// The engines-plus-mesh share of slow_next_event, unmemoized.
  Cycle slow_rest_horizon_fresh(Cycle now_slow) const;
  /// Memoized wrapper: engine and mesh state mutate only inside slow_tick,
  /// so the joint horizon is cached under the slow-tick epoch counter.
  Cycle slow_rest_horizon(Cycle now_slow) const;
  /// Which horizon bounded a skip window (counted in SchedStats::bound_*).
  enum class SkipBound : u8 { kCore, kSlow, kCap };
  /// The one skip-window walker: moves fast_now_ to `target` (> fast_now_),
  /// the end of a window whose fast domain is dead, and carries the slow
  /// domain across every boundary inside it — elided in bulk before the slow
  /// horizon, a real slow_tick at it. A `frozen` (back-pressure) window also
  /// charges its refused fast cycles via Frontend::charge_frozen_cycles and
  /// ends right after the first real tick that leaves the CDC with room
  /// (then bounded by the slow domain, whatever `bound` said).
  void jump_to(Cycle target, SkipBound bound, bool frozen, u32& until_slow,
               Cycle& slow_now);
  bool can_deliver(const core::Packet& p) const;
  void deliver(const core::Packet& p);
  bool engines_drained() const;
  void match_detections() const;  // fills matched_/spurious_ in one pass

  SocConfig cfg_;
  mem::MemHierarchy mem_;
  std::unique_ptr<boom::BoomCore> core_;
  std::unique_ptr<core::Frontend> frontend_;
  std::vector<Engine> engines_;
  // Raw per-engine µcore pointers (nullptr for HA slots), hoisted out of the
  // slow-tick drain/NoC loops so they don't re-do unique_ptr::get() per
  // engine per slow cycle.
  std::vector<ucore::UCore*> ucores_;
  std::vector<std::unique_ptr<ucore::USharedMemory>> kernel_mems_;
  // Shared memories that hold an authoritative ASan/UaF shadow, updated in
  // commit order (functional-first / timing-later split, DESIGN.md §6).
  std::vector<ucore::USharedMemory*> shadow_mems_;
  std::unique_ptr<mem::Cache> engine_l2_;
  std::unique_ptr<core::NocMesh> noc_;

  bool engines_blocked_ = false;  // multicast head-of-line blocked last slow tick
  Cycle fast_now_ = 0;
  Cycle core_done_cycle_ = 0;
  std::unordered_map<u32, Cycle> attack_commit_;
  // Kernels whose hot loop cannot afford q.recent report the faulting
  // address instead of the debug-data word; map addresses back to ids.
  std::unordered_map<u64, std::vector<u32>> attack_by_addr_;

  // Cache for the match pass shared by detections() / spurious_detections();
  // keyed on the fast cycle it was computed at so mid-run queries stay fresh.
  mutable bool match_valid_ = false;
  mutable Cycle match_cycle_ = 0;
  mutable std::vector<DetectionRecord> matched_;
  mutable u64 spurious_ = 0;

  SchedStats sched_;

  // Memoized slow-domain horizon, split by who can invalidate it. Engine and
  // mesh state mutate only inside slow_tick, so their joint horizon (an
  // absolute slow cycle, or kNoEvent) is cached under a slow-tick epoch
  // counter — nothing the fast domain does can stale it. CDC head-readiness
  // is the one input the fast domain *can* move (a push), so it is read
  // fresh on every evaluation; it is O(1) by handshake monotonicity. The
  // net effect is the per-engine horizon memoization the delivery path
  // invalidates only when a slow tick actually runs.
  u64 slow_epoch_ = 0;
  mutable u64 slow_rest_epoch_ = ~u64{0};
  mutable Cycle slow_rest_cache_ = 0;

  // CDC slow-side read bandwidth per slow tick (freq_ratio packets per
  // mapper lane), hoisted out of the per-tick pop loop.
  u32 cdc_pop_budget_ = 1;
};

}  // namespace fg::soc
