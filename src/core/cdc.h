// Handshake-based clock-domain crossing (footnote 2 of the paper).
//
// FireGuard splits the design into a high-frequency domain (main core,
// forwarding channel, filter, allocator) and a low-frequency domain (fabric
// network and µcores). The CDC FIFO carries packets between them: a push in
// the fast domain becomes visible to the slow domain only after the
// handshake settles (one slow-domain cycle), and capacity is small
// (Table II: 8-entry CDC).
#pragma once

#include <algorithm>

#include "src/common/ring_queue.h"
#include "src/common/simctl.h"
#include "src/core/packet.h"

namespace fg::core {

struct CdcStats {
  u64 pushes = 0;
  u64 pops = 0;
  u64 full_rejects = 0;
};

class CdcFifo {
 public:
  /// `depth`: FIFO capacity. `ratio`: fast cycles per slow cycle.
  CdcFifo(u32 depth, u32 ratio);

  bool can_push() const { return !q_.full(); }

  /// Push from the fast domain at fast-cycle `now_fast`.
  void push(const Packet& p, Cycle now_fast);

  /// True if the slow domain can pop an entry at slow-cycle `now_slow`
  /// (handshake settled).
  bool can_pop(Cycle now_slow) const;

  /// First slow cycle the head entry becomes poppable; kNoEvent when empty.
  /// (Entries settle in push order, so the head bounds the whole FIFO.)
  Cycle next_ready_slow() const {
    return q_.empty() ? kNoEvent : q_.front().ready_slow;
  }

  /// How many of the first `max_n` entries have settled by `now_slow` —
  /// the burst a slow-domain wakeup may drain without re-checking the
  /// handshake per packet. Settle times are monotone in push order, so the
  /// scan stops at the first not-yet-ready entry.
  u32 ready_count(Cycle now_slow, u32 max_n) const {
    const u32 lim = static_cast<u32>(std::min<size_t>(max_n, q_.size()));
    u32 n = 0;
    while (n < lim && q_.at(n).ready_slow <= now_slow) ++n;
    return n;
  }

  const Packet& front() const { return q_.front().p; }
  Packet pop();

  size_t size() const { return q_.size(); }
  bool full() const { return q_.full(); }
  bool empty() const { return q_.empty(); }
  void note_reject(u64 n = 1) { stats_.full_rejects += n; }
  const CdcStats& stats() const { return stats_; }

 private:
  struct Entry {
    Packet p;
    Cycle ready_slow = 0;  // first slow cycle the consumer may take it
  };

  u32 ratio_;
  RingQueue<Entry> q_;
  CdcStats stats_;
  // Handshake monotonicity witness: entries settle in push order, so each
  // push's ready_slow must be >= the previous one's (checked by
  // FG_INVARIANT in push; cheap enough to maintain unconditionally).
  Cycle last_ready_slow_ = 0;
  Cycle last_push_fast_ = 0;
};

}  // namespace fg::core
