#include "src/core/frontend.h"

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace fg::core {

Frontend::Frontend(const FrontendConfig& cfg)
    : cfg_(cfg), filter_(cfg.filter), cdc_(cfg.cdc_depth, cfg.freq_ratio) {}

StallCause Frontend::classify_stall(u32 lane, bool engines_blocked) const {
  if (filter_.lane_blocked_by_width(lane)) return StallCause::kFilter;
  // The lane FIFO is full; find the deepest full structure downstream.
  if (cdc_.full()) {
    return engines_blocked ? StallCause::kEngines : StallCause::kCdc;
  }
  // CDC has room but the FIFO could not drain: the scalar mapper (one packet
  // per cycle through arbiter + allocator) is the limit.
  return StallCause::kMapper;
}

void Frontend::note_refusal(u32 lane) {
  const StallCause c = classify_stall(lane, engines_blocked_hint_);
  ++stats_.stall_by_cause[static_cast<size_t>(c)];
}

void Frontend::on_commit(u32 lane, const trace::TraceInst& ti, Cycle now) {
  ++stats_.commits_observed;
  // SRAM look-up first: the forwarding channel only assembles (and the data
  // paths are only read for) instructions some kernel selected; an
  // unselected commit contributes just an ordering placeholder.
  const FilterEntry& e = filter_.table().lookup(ti.enc);
  if (e.gid_bitmap == 0) {
    filter_.offer_placeholder(lane, seq_++);
    return;
  }
  Packet p = fwd_.extract(ti, now, seq_++);
  EventFilter::apply_entry(p, e);
  filter_.offer_valid(lane, p);
  fwd_.note_selected(e.dp_sel);
}

void Frontend::charge_frozen_cycles(u64 n, bool engines_blocked) {
  FG_CHECK(n >= 1);
  FG_INVARIANT(cdc_.full() && !filter_.lane_ready(0), "frontend.frozen");
  const auto cause = [this](bool blocked) {
    return static_cast<size_t>(classify_stall(0, blocked));
  };
  ++stats_.stall_by_cause[cause(engines_blocked_hint_)];
  stats_.stall_by_cause[cause(engines_blocked)] += n - 1;
  engines_blocked_hint_ = engines_blocked;
  cdc_.note_reject(n);
  filter_.note_blocked(n);
}

bool Frontend::tick_fast(Cycle now_fast, const QueueStatus& status,
                         bool engines_blocked) {
  engines_blocked_hint_ = engines_blocked;
  if (filter_.buffered() == 0) return false;  // nothing to arbitrate or drop
  u16 issued_engines = 0;
  for (u32 slot = 0; slot < cfg_.mapper_width; ++slot) {
    Packet p;
    if (!filter_.arbiter_peek(p)) return false;
    if (!cdc_.can_push()) {
      cdc_.note_reject();
      filter_.note_blocked();
      return slot == 0;
    }
    const u16 ses = allocator_.plan(p, status);
    if (slot > 0 && (p.ae_bitmap & issued_engines) != 0) {
      // Footnote 5's per-engine arbiter: a second packet to an engine already
      // written this cycle must wait. The plan is abandoned (PT_reg unlatched)
      // and the packet re-planned next cycle.
      ++stats_.mapper_port_conflicts;
      return false;
    }
    allocator_.commit_plan(ses);
    filter_.arbiter_pop();
    if (p.ae_bitmap == 0) {
      ++stats_.dropped_unrouted;
      continue;
    }
    issued_engines |= p.ae_bitmap;
    cdc_.push(p, now_fast);
  }
  return false;
}

}  // namespace fg::core
