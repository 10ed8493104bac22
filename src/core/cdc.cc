#include "src/core/cdc.h"

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace fg::core {

CdcFifo::CdcFifo(u32 depth, u32 ratio) : ratio_(ratio), q_(depth) {
  FG_CHECK(ratio_ >= 1);
}

void CdcFifo::push(const Packet& p, Cycle now_fast) {
  FG_CHECK(!q_.full());
  // The slow domain observes the write pointer one full slow cycle after the
  // fast-domain push (two-flop synchronizer + valid/ready handshake).
  const Cycle slow_now = now_fast / ratio_;
  const Cycle ready = slow_now + 1;
  // Handshake monotonicity: pushes arrive in fast-cycle order, and settle
  // times are monotone in push order — a later push can never become
  // poppable before an earlier one (pop order == push order is what lets
  // next_ready_slow() bound the whole FIFO by its head).
  FG_INVARIANT(now_fast >= last_push_fast_, "cdc.push_order");
  FG_INVARIANT(ready >= last_ready_slow_, "cdc.handshake_monotone");
  last_push_fast_ = now_fast;
  last_ready_slow_ = ready;
  q_.push(Entry{p, ready});
  ++stats_.pushes;
}

bool CdcFifo::can_pop(Cycle now_slow) const {
  return !q_.empty() && q_.front().ready_slow <= now_slow;
}

Packet CdcFifo::pop() {
  FG_CHECK(!q_.empty());
  // Pop/push conservation: every packet popped was pushed exactly once.
  FG_INVARIANT(stats_.pops < stats_.pushes, "cdc.conservation");
  Packet p = q_.pop().p;
  ++stats_.pops;
  FG_INVARIANT(stats_.pushes - stats_.pops == q_.size(), "cdc.occupancy");
  return p;
}

}  // namespace fg::core
