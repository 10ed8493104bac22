// Trace-driven cycle model of a 4-wide out-of-order superscalar core in the
// SonicBOOM configuration of Table II:
//
//   128-entry ROB, 96-entry issue queue, 32-entry LDQ/STQ, 128 physical
//   registers, 2 integer ALUs, 1 FP/mul/div unit, 2 memory pipes, 1 jump
//   unit, 1 CSR unit, TAGE branch prediction, and the Table II cache
//   hierarchy.
//
// The model is timestamp-based: at dispatch each instruction's execution
// start/completion times are computed from operand readiness, functional-unit
// availability and memory latency; the reorder buffer then retires
// instructions in order, up to commit-width per cycle. FireGuard attaches at
// exactly the point the paper instruments the real BOOM: the commit stage. A
// CommitSink can refuse a commit lane (its mini-filter FIFO is full), which
// stalls the core — this is the *only* mechanism by which monitoring slows
// the main core down, plus modeled PRF read-port contention.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "src/boom/branch_pred.h"
#include "src/boom/lsq.h"
#include "src/boom/rename.h"
#include "src/common/ring_queue.h"
#include "src/common/types.h"
#include "src/mem/hierarchy.h"
#include "src/trace/trace.h"

namespace fg::boom {

struct CoreConfig {
  u32 fetch_width = 4;
  u32 commit_width = 4;
  u32 rob_entries = 128;
  u32 iq_entries = 96;
  u32 ldq_entries = 32;
  u32 stq_entries = 32;
  u32 phys_regs = 128;

  u32 n_int_alu = 2;
  u32 n_fp = 1;  // shared FP / mul / div unit
  u32 n_mem = 2;
  u32 n_jmp = 1;
  u32 n_csr = 1;

  u32 lat_int = 1;
  u32 lat_mul = 3;
  u32 lat_div = 12;
  u32 lat_fp = 3;
  u32 lat_fp_muldiv = 8;
  u32 lat_jmp = 1;

  u32 front_depth = 6;         // fetch→dispatch pipeline depth
  u32 redirect_penalty = 8;    // extra cycles to refill after a mispredict
  u32 btb_bubble = 2;          // short bubble for a BTB-missing direct branch

  /// Store-to-load forwarding in the LSQ. Off by default: the paper's
  /// reproduction was calibrated without it; the ablation bench and the LSQ
  /// unit tests exercise it.
  bool store_load_forwarding = false;
  u32 stlf_latency = 1;

  PredictorConfig predictor{};
};

/// Interface by which FireGuard observes (and can stall) the commit stage.
class CommitSink {
 public:
  virtual ~CommitSink() = default;

  /// May lane `lane` retire instruction `ti` this cycle? Returning false
  /// stalls this and all younger lanes (commit is in order).
  virtual bool can_commit(u32 lane, const trace::TraceInst& ti) = 0;

  /// Lane `lane` retired `ti` at cycle `now`.
  virtual void on_commit(u32 lane, const trace::TraceInst& ti, Cycle now) = 0;

  /// Number of PRF read ports the sink preempts this cycle (data-forwarding
  /// channel reads of committed operand data; Figure 2's added contention).
  virtual u32 prf_ports_preempted() = 0;
};

struct CoreStats {
  u64 cycles = 0;
  u64 committed = 0;
  u64 commit_stall_fireguard = 0;  // commit-lane stalls caused by the sink
  u64 commit_stall_empty = 0;      // nothing ready to retire
  u64 dispatch_stall_rob = 0;
  u64 dispatch_stall_iq = 0;
  u64 dispatch_stall_lsq = 0;
  u64 dispatch_stall_pregs = 0;
  u64 mispredicts = 0;
  u64 prf_contention_delays = 0;
  u64 stlf_forwards = 0;  // loads served from the store queue
  double ipc() const {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles) : 0.0;
  }
};

class BoomCore {
 public:
  BoomCore(const CoreConfig& cfg, mem::MemHierarchy& mem, trace::TraceSource& src);

  /// Advance one core cycle. `sink` may be null (baseline, no monitoring).
  /// Returns true if the cycle changed state beyond per-cycle stall
  /// counters: a commit, a dispatch, a trace fetch, or an applied PRF-port
  /// preemption. A false return means the core is at a fixed point: every
  /// subsequent cycle up to `next_event()` is provably identical, so the
  /// scheduler may `skip_to` it in one step. A sink refusal of the head
  /// (`head_refused()`) is such a fixed point too, but only for as long as
  /// the sink keeps refusing: the caller must know its sink is frozen.
  bool tick(CommitSink* sink);

  /// Statically-typed variant of `tick` for the per-commit hot path: when
  /// `Sink` is a final class the three sink calls per commit lane
  /// (can_commit / on_commit / prf_ports_preempted) devirtualize and can
  /// inline, which removes the indirect call from every committed
  /// instruction. Semantically identical to `tick(sink)`.
  template <typename Sink>
  bool tick_t(Sink* sink) {
    active_ = false;
    dispatch_block_ = DispatchBlock::kNone;
    do_commit_t(sink);
    do_dispatch(nullptr);
    ++now_;
    ++stats_.cycles;
    return active_;
  }

  /// Earliest cycle at which `tick` could make progress again. Only
  /// meaningful immediately after a `tick` that returned false; kNoEvent
  /// means the core will never progress again (trace done, ROB empty) —
  /// or, with a refused head, not before the sink accepts it. A refused
  /// head bounds nothing here (it waits on the sink, not on time), so the
  /// horizon is then the dispatch stage's alone. Horizons are conservative
  /// lower bounds: stepping at the returned cycle re-evaluates the real
  /// state.
  Cycle next_event() const;

  /// Bulk-advance over cycles proven dead by `next_event()`, charging the
  /// exact per-cycle stall counters the stepped loop would have charged
  /// (commit_stall_empty every cycle — commit_stall_fireguard instead when
  /// the head is refused — plus the dispatch stall recorded by the
  /// fixed-point tick). Pre: the last tick returned false and
  /// `target <= next_event()`.
  void skip_to(Cycle target);

  /// The last (inactive) tick stopped at a completed ROB head that the sink
  /// refused on lane 0: a head done before the current cycle that is still
  /// in the ROB can only have been refused, since an accepted one retires.
  bool head_refused() const {
    return !rob_.empty() && rob_.front().done_at < now_;
  }

  /// True once the trace is exhausted and the ROB has drained.
  bool done() const { return trace_done_ && rob_.empty(); }

  Cycle now() const { return now_; }
  const CoreStats& stats() const { return stats_; }
  const BranchPredictor& predictor() const { return pred_; }
  const RenameStage& rename() const { return rename_; }
  const LoadStoreQueues& lsq() const { return lsq_; }

  /// Run to completion (baseline convenience). Returns total cycles.
  Cycle run_to_end(CommitSink* sink = nullptr, u64 max_cycles = ~u64{0});

  /// Mark the cycle at which the k-th instruction commits (the measurement
  /// window starts there; earlier instructions warm predictors and caches).
  void set_warmup_mark(u64 committed_insts) { warmup_target_ = committed_insts; }
  Cycle warmup_cycle() const { return warmup_cycle_; }
  /// Cycles spent after the warmup mark.
  Cycle measured_cycles() const {
    return now_ > warmup_cycle_ ? now_ - warmup_cycle_ : now_;
  }

 private:
  struct RobEntry {
    trace::TraceInst inst;
    Renamed ren;  // physical registers; stale preg freed at commit
    Cycle done_at = 0;
    bool has_dst = false;
    bool is_load = false;
    bool is_store = false;
  };

  /// Why the fixed-point tick's dispatch stage stopped — determines which
  /// stall counter a skipped cycle charges and which horizon unblocks it.
  enum class DispatchBlock : u8 {
    kNone,           // dispatched something (tick was active)
    kTraceDone,      // nothing left to fetch
    kFrontendReady,  // redirect/i-cache refill: unblocks at frontend_ready_
    kRobFull,        // unblocks when the ROB head completes (commit horizon)
    kIqFull,         // unblocks at iq_release_.top()
    kLsqFull,        // unblocks at commit (LSQ entries free at commit)
    kPregs,          // unblocks at commit (stale pregs free at commit)
  };

  template <typename Sink>
  void do_commit_t(Sink* sink);
  void do_dispatch(CommitSink* sink);
  bool fetch_next();
  Cycle* fu_pick(std::vector<Cycle>& units);
  u32 exec_latency_class(const trace::TraceInst& ti) const;

  CoreConfig cfg_;
  mem::MemHierarchy& mem_;
  trace::TraceSource& src_;
  BranchPredictor pred_;

  Cycle now_ = 0;
  RingQueue<RobEntry> rob_;
  RenameStage rename_;
  LoadStoreQueues lsq_;
  u64 mem_seq_ = 0;  // dispatch order of memory operations (LSQ dependence)

  // Issue-queue occupancy: entries leave the IQ when execution starts.
  // Stored unsorted: pushes are O(1) on the per-instruction hot path, and
  // the set only has to be walked when the IQ is actually full (drain all
  // releases <= now) — the same entries a sorted structure would pop.
  std::vector<Cycle> iq_release_;

  // Per-class FU next-free times.
  std::vector<Cycle> fu_int_;
  std::vector<Cycle> fu_fp_;
  std::vector<Cycle> fu_mem_;
  std::vector<Cycle> fu_jmp_;
  std::vector<Cycle> fu_csr_;

  // Physical-register ready times (written at schedule, read via the RAT).
  std::vector<Cycle> preg_ready_;

  // Frontend state.
  trace::TraceInst pending_{};
  bool have_pending_ = false;
  bool trace_done_ = false;
  Cycle frontend_ready_ = 0;  // earliest dispatch cycle for the next inst
  u64 cur_fetch_line_ = ~u64{0};

  u64 warmup_target_ = 0;
  Cycle warmup_cycle_ = 0;

  // Fixed-point bookkeeping for the event-driven scheduler (see tick()).
  bool active_ = true;
  DispatchBlock dispatch_block_ = DispatchBlock::kNone;
  Cycle iq_next_release_ = 0;  // earliest pending release after an IQ-full drain

  CoreStats stats_;
};

// Defined in the header so tick_t's concrete instantiations (e.g. the SoC,
// which is final) see the body and devirtualize the sink calls.
template <typename Sink>
void BoomCore::do_commit_t(Sink* sink) {
  // Model PRF read-port contention from the data-forwarding channel: each
  // port the sink preempts this cycle delays one integer-FU availability by
  // a cycle (Figure 2 d: Mini-Filter[x] has priority on Read_Ctrl[x]).
  if (sink != nullptr) {
    const u32 preempted = sink->prf_ports_preempted();
    if (preempted != 0) active_ = true;  // FU free times move: not a fixed point
    for (u32 i = 0; i < preempted && i < fu_int_.size(); ++i) {
      // The preempted read port pushes the next issue on this pipe back by
      // one cycle ("an instruction attempting to use the same port will be
      // delayed until the next cycle").
      Cycle& next_free = fu_int_[i];
      next_free = std::max(next_free, now_) + 1;
      ++stats_.prf_contention_delays;
    }
  }

  for (u32 lane = 0; lane < cfg_.commit_width; ++lane) {
    if (rob_.empty()) {
      ++stats_.commit_stall_empty;
      return;
    }
    RobEntry& head = rob_.front();
    if (head.done_at > now_) {
      ++stats_.commit_stall_empty;
      return;
    }
    if (sink != nullptr && !sink->can_commit(lane, head.inst)) {
      // A refusal changes no core state beyond this counter: whether the
      // cycle may be skipped is the sink's to decide (head_refused()).
      ++stats_.commit_stall_fireguard;
      return;  // in-order commit: younger lanes stall too
    }
    if (head.is_load) lsq_.commit_load();
    if (head.is_store) lsq_.commit_store();
    rename_.commit(head.ren);
    if (sink != nullptr) sink->on_commit(lane, head.inst, now_);
    ++stats_.committed;
    if (stats_.committed == warmup_target_) warmup_cycle_ = now_;
    rob_.pop();
    active_ = true;
  }
}

}  // namespace fg::boom
