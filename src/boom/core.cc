#include "src/boom/core.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/common/simctl.h"

namespace fg::boom {

BoomCore::BoomCore(const CoreConfig& cfg, mem::MemHierarchy& mem,
                   trace::TraceSource& src)
    : cfg_(cfg),
      mem_(mem),
      src_(src),
      pred_(cfg.predictor),
      rob_(cfg.rob_entries),
      rename_(cfg.phys_regs),
      lsq_(LsqConfig{cfg.ldq_entries, cfg.stq_entries,
                     cfg.store_load_forwarding, cfg.stlf_latency}),
      fu_int_(cfg.n_int_alu, 0),
      fu_fp_(cfg.n_fp, 0),
      fu_mem_(cfg.n_mem, 0),
      fu_jmp_(cfg.n_jmp, 0),
      fu_csr_(cfg.n_csr, 0) {
  preg_ready_.assign(cfg.phys_regs, 0);
  // Lazy draining caps the release set at one over-full check past the IQ
  // capacity plus the entries a drain leaves in the future (<= ROB size).
  iq_release_.reserve(cfg.iq_entries + cfg.rob_entries);
}

Cycle* BoomCore::fu_pick(std::vector<Cycle>& units) {
  // Pick the unit that frees earliest; execution starts when both the unit
  // and the operands are ready. The caller occupies the returned unit once
  // the start cycle is final (one scan instead of schedule + re-scan).
  return &*std::min_element(units.begin(), units.end());
}

u32 BoomCore::exec_latency_class(const trace::TraceInst& ti) const {
  using isa::InstClass;
  switch (ti.cls) {
    case InstClass::kIntMul: return cfg_.lat_mul;
    case InstClass::kIntDiv: return cfg_.lat_div;
    case InstClass::kFpAlu: return cfg_.lat_fp;
    case InstClass::kFpMulDiv: return cfg_.lat_fp_muldiv;
    case InstClass::kBranch:
    case InstClass::kJump:
    case InstClass::kCall:
    case InstClass::kRet: return cfg_.lat_jmp;
    default: return cfg_.lat_int;
  }
}

bool BoomCore::fetch_next() {
  if (have_pending_ || trace_done_) return have_pending_;
  if (!src_.next(pending_)) {
    trace_done_ = true;
    return false;
  }
  have_pending_ = true;
  // The pull (and its possible i-cache access below) is a timing-visible
  // state change anchored to this cycle: the tick is not a fixed point.
  active_ = true;

  // Instruction-cache model: crossing into a new 64B line costs an i-cache
  // access; the frontend cannot deliver the instruction earlier.
  const u64 line = pending_.pc / 64;
  if (line != cur_fetch_line_) {
    cur_fetch_line_ = line;
    const u32 lat = mem_.access_inst(pending_.pc, now_);
    if (lat > 2) frontend_ready_ = std::max(frontend_ready_, now_ + (lat - 2));
  }
  return true;
}

void BoomCore::do_dispatch(CommitSink*) {
  using isa::InstClass;
  for (u32 slot = 0; slot < cfg_.fetch_width; ++slot) {
    if (!have_pending_ && !fetch_next()) {
      dispatch_block_ = DispatchBlock::kTraceDone;
      return;
    }
    if (frontend_ready_ > now_) {
      dispatch_block_ = DispatchBlock::kFrontendReady;
      return;
    }

    // Structural hazards.
    if (rob_.full()) {
      ++stats_.dispatch_stall_rob;
      dispatch_block_ = DispatchBlock::kRobFull;
      return;
    }
    // Issue-queue occupancy: entries leave the IQ when execution starts.
    // Releases are drained lazily — only a full IQ needs the set walked,
    // and draining late removes exactly the entries draining eagerly would
    // have (every release time <= now_).
    if (iq_release_.size() >= cfg_.iq_entries) {
      // Compact out the released entries and remember the earliest pending
      // release — that is the stall's horizon, computed for free here
      // instead of with a second scan in next_event().
      Cycle* out = iq_release_.data();
      Cycle next_release = kNoEvent;
      for (const Cycle c : iq_release_) {
        if (c <= now_) continue;
        *out++ = c;
        next_release = std::min(next_release, c);
      }
      iq_release_.resize(static_cast<size_t>(out - iq_release_.data()));
      if (iq_release_.size() >= cfg_.iq_entries) {
        ++stats_.dispatch_stall_iq;
        dispatch_block_ = DispatchBlock::kIqFull;
        iq_next_release_ = next_release;
        return;
      }
    }
    const trace::TraceInst& ti = pending_;
    const bool is_load = ti.cls == InstClass::kLoad;
    const bool is_store = ti.cls == InstClass::kStore;
    if (is_load && lsq_.ldq_full()) {
      ++stats_.dispatch_stall_lsq;
      dispatch_block_ = DispatchBlock::kLsqFull;
      return;
    }
    if (is_store && lsq_.stq_full()) {
      ++stats_.dispatch_stall_lsq;
      dispatch_block_ = DispatchBlock::kLsqFull;
      return;
    }
    const bool has_dst = ti.rd != kNoReg && ti.rd != 0;
    if (has_dst && !rename_.can_allocate()) {
      ++stats_.dispatch_stall_pregs;
      dispatch_block_ = DispatchBlock::kPregs;
      return;
    }

    // Rename: map sources through the RAT, allocate a physical destination.
    const Renamed ren = rename_.rename(has_dst ? ti.rd : kNoReg, ti.rs1, ti.rs2);

    // Operand readiness from the physical registers.
    Cycle ready = now_ + 1;
    if (ren.ps1 != kNoPreg) ready = std::max(ready, preg_ready_[ren.ps1]);
    if (ren.ps2 != kNoPreg) ready = std::max(ready, preg_ready_[ren.ps2]);

    // Schedule on a functional unit. The chosen unit is occupied (rough:
    // one cycle of issue bandwidth) once the start cycle is final.
    Cycle start;
    Cycle done;
    Cycle* unit;
    switch (ti.cls) {
      case InstClass::kLoad: {
        unit = fu_pick(fu_mem_);
        start = std::max(*unit, ready);
        const LoadPlan plan = lsq_.dispatch_load(ti.mem_addr, ti.mem_size, start);
        if (plan.forwarded) {
          // Data comes straight from the STQ; no cache access.
          done = plan.earliest_start;
          ++stats_.stlf_forwards;
        } else {
          start = plan.earliest_start;  // partial-overlap ordering, if any
          const u32 lat = mem_.access_data(ti.mem_addr, false, start);
          done = start + lat;
        }
        break;
      }
      case InstClass::kStore: {
        unit = fu_pick(fu_mem_);
        start = std::max(*unit, ready);
        // Stores write at commit; address generation + STQ insert only.
        mem_.access_data(ti.mem_addr, true, start);
        lsq_.dispatch_store(ti.mem_addr, ti.mem_size, ready, mem_seq_++);
        done = start + 1;
        break;
      }
      case InstClass::kFpAlu:
      case InstClass::kFpMulDiv:
      case InstClass::kIntMul:
      case InstClass::kIntDiv: {
        auto& pool = (ti.cls == InstClass::kFpAlu || ti.cls == InstClass::kFpMulDiv)
                         ? fu_fp_
                         : (fu_fp_.empty() ? fu_int_ : fu_fp_);  // shared unit
        unit = fu_pick(pool);
        start = std::max(*unit, ready);
        done = start + exec_latency_class(ti);
        break;
      }
      case InstClass::kBranch:
      case InstClass::kJump:
      case InstClass::kCall:
      case InstClass::kRet: {
        unit = fu_pick(fu_jmp_);
        start = std::max(*unit, ready);
        done = start + cfg_.lat_jmp;
        break;
      }
      case InstClass::kCsr:
      case InstClass::kGuardEvent: {
        unit = fu_pick(fu_csr_);
        start = std::max(*unit, ready);
        done = start + 1;
        break;
      }
      default: {
        unit = fu_pick(fu_int_);
        start = std::max(*unit, ready);
        done = start + cfg_.lat_int;
        break;
      }
    }
    *unit = start + 1;

    // Writeback: the physical destination becomes ready at completion.
    if (ren.pd != kNoPreg) preg_ready_[ren.pd] = done;

    // Branch prediction: a mispredict prevents younger instructions from
    // dispatching until the branch resolves and the frontend refills.
    bool mispredict = false;
    bool btb_bubble = false;
    switch (ti.cls) {
      case InstClass::kBranch:
        mispredict = !pred_.predict_cond(ti.pc, ti.taken, ti.target);
        break;
      case InstClass::kJump:
        if (isa::opcode_of(ti.enc) == isa::kOpJalr) {
          mispredict = !pred_.predict_indirect(ti.pc, ti.target);
        } else {
          btb_bubble = !pred_.predict_direct(ti.pc, ti.target);
        }
        break;
      case InstClass::kCall:
        if (isa::opcode_of(ti.enc) == isa::kOpJalr) {
          mispredict = !pred_.predict_indirect(ti.pc, ti.target);
        } else {
          btb_bubble = !pred_.predict_direct(ti.pc, ti.target);
        }
        pred_.push_ras(ti.pc + 4);
        break;
      case InstClass::kRet:
        mispredict = !pred_.predict_ret(ti.target);
        break;
      default:
        break;
    }
    if (mispredict) {
      ++stats_.mispredicts;
      frontend_ready_ = done + cfg_.redirect_penalty;
      cur_fetch_line_ = ~u64{0};
    } else if (btb_bubble) {
      frontend_ready_ = std::max(frontend_ready_, now_ + cfg_.btb_bubble);
    }

    // Enter the ROB / IQ / LSQ (in place: RobEntry carries the TraceInst,
    // so a stack copy + push would move it twice).
    RobEntry& e = rob_.push_slot();
    e.inst = ti;
    e.ren = ren;
    e.done_at = done;
    e.has_dst = has_dst;
    e.is_load = is_load;
    e.is_store = is_store;
    iq_release_.push_back(start);
    // Occupancy bounds: the lazily-drained release set stays within the
    // reserve cap (one over-full check past the IQ capacity plus what a
    // drain leaves in the future), and the LDQ/STQ never exceed Table II.
    FG_INVARIANT(iq_release_.size() <= cfg_.iq_entries + cfg_.rob_entries,
                 "boom.iq_release_bound");
    FG_INVARIANT(lsq_.ldq_used() <= cfg_.ldq_entries &&
                     lsq_.stq_used() <= cfg_.stq_entries,
                 "boom.lsq_occupancy");
    if (is_load) lsq_.note_load_dispatched();
    have_pending_ = false;
    dispatch_block_ = DispatchBlock::kNone;
    active_ = true;

    if (mispredict) return;  // nothing younger dispatches this cycle
  }
}

bool BoomCore::tick(CommitSink* sink) { return tick_t(sink); }

Cycle BoomCore::next_event() const {
  Cycle h = kNoEvent;
  // Commit horizon: the ROB head completes (stepping at the horizon
  // re-checks whether the sink accepts it). A refused head is already
  // complete and bounds nothing: only the sink can release it.
  if (!rob_.empty() && !head_refused()) h = std::min(h, rob_.front().done_at);
  // Dispatch horizon, from the block the fixed-point tick recorded.
  switch (dispatch_block_) {
    case DispatchBlock::kFrontendReady:
      h = std::min(h, frontend_ready_);
      break;
    case DispatchBlock::kIqFull:
      // The full check drained entries <= now_ and recorded the earliest
      // remaining release.
      h = std::min(h, iq_next_release_);
      break;
    case DispatchBlock::kRobFull:
    case DispatchBlock::kLsqFull:
    case DispatchBlock::kPregs:
      // These clear only when the ROB head commits; the commit horizon
      // above already bounds the skip (the ROB cannot be empty here).
      break;
    case DispatchBlock::kTraceDone:
      break;
    case DispatchBlock::kNone:
      // Defensive: no recorded block (tick was active) — do not skip.
      return now_ + 1;
  }
  return h;
}

void BoomCore::skip_to(Cycle target) {
  FG_CHECK(target >= now_);
  // Only a fixed-point core may be fast-forwarded: the dispatch-block hint
  // recorded by the last (inactive) tick is what skip_to charges stalls by.
  FG_INVARIANT(!active_, "boom.skip_fixed_point");
  // The horizon contract the event loop leans on (it skips straight from
  // next_event(), so an overshoot here would silently corrupt a run rather
  // than just a counter): the target must not pass the first cycle this
  // core can act again.
  FG_INVARIANT(target <= next_event(), "boom.skip_within_horizon");
  const u64 d = target - now_;
  if (d == 0) return;
  stats_.cycles += d;
  // Every skipped cycle's do_commit would have stalled on an empty ROB or a
  // not-yet-complete head — or, at a refused-head fixed point, on the
  // sink's refusal of lane 0 (an accepted ready head makes the tick active,
  // which forbids skipping).
  if (head_refused()) {
    stats_.commit_stall_fireguard += d;
  } else {
    stats_.commit_stall_empty += d;
  }
  switch (dispatch_block_) {
    case DispatchBlock::kRobFull: stats_.dispatch_stall_rob += d; break;
    case DispatchBlock::kIqFull: stats_.dispatch_stall_iq += d; break;
    case DispatchBlock::kLsqFull: stats_.dispatch_stall_lsq += d; break;
    case DispatchBlock::kPregs: stats_.dispatch_stall_pregs += d; break;
    case DispatchBlock::kFrontendReady:
    case DispatchBlock::kTraceDone:
    case DispatchBlock::kNone:
      break;  // those early returns charge no dispatch stall counter
  }
  now_ = target;
}

Cycle BoomCore::run_to_end(CommitSink* sink, u64 max_cycles) {
  // Event-driven fast-forward is only safe against a known-idempotent sink;
  // a bare core (baseline runs) qualifies, an arbitrary CommitSink may
  // observe every cycle, so it falls back to stepping.
  if (sink == nullptr && !cycle_exact()) {
    while (!done() && now_ < max_cycles) {
      if (!tick(nullptr) && !done()) {
        const Cycle ev = next_event();
        const Cycle target = std::min<Cycle>(ev, max_cycles);
        if (target > now_) skip_to(target);
      }
    }
    return now_;
  }
  while (!done() && now_ < max_cycles) tick(sink);
  return now_;
}

}  // namespace fg::boom
