// The superscalar event filter (Section III-B, Figures 3 and 4).
//
// One SRAM-based mini-filter hangs off each commit lane of the ROB. The
// 10-bit SRAM index is {funct3, opcode} of the committing instruction; the
// entry holds the Group-ID bitmap (which guardian kernels want this
// instruction) and DP_Sel (which data paths the forwarding channel should
// read). Filtered packets are buffered in paired FIFO queues — one per lane —
// and a shared arbiter re-serializes them into commit order, consuming one
// cycle per valid packet and skipping invalid placeholders for free.
//
// Model of the paired FIFOs: commit lanes push in commit (seq) order, so
// the head with the globally smallest seq — the one the hardware arbiter
// resolves next — is always the oldest entry buffered in any lane. The
// model therefore keeps one commit-ordered queue of {lane, valid} tags, the
// valid packets in a second queue (placeholders carry no payload), and a
// per-lane occupancy counter. A lane refuses commits exactly when its
// counter reaches the FIFO depth, and popping the front tag frees a slot in
// exactly the lane the hardware arbiter would have popped — the same
// capacity back-pressure and output order as the paired FIFOs, with an
// O(1) arbiter instead of a min-scan over the lane heads per pop.
#pragma once

#include <array>
#include <vector>

#include "src/common/ring_queue.h"
#include "src/core/packet.h"
#include "src/isa/riscv.h"

namespace fg::core {

/// One SRAM entry of a mini-filter's look-up table.
struct FilterEntry {
  u16 gid_bitmap = 0;  // zero means: no kernel cares, drop the instruction
  u8 dp_sel = 0;
};

/// The programmable SRAM look-up table shared by all mini-filters (each lane
/// has a physical copy; contents are identical, so we model one table).
class FilterTable {
 public:
  FilterTable() = default;

  /// Program a single {funct3, opcode} slot.
  void program(u8 opcode, u8 funct3, u16 gid_bitmap, u8 dp_sel);

  /// Program all eight funct3 slots of an opcode (e.g. JAL, where the funct3
  /// bits are immediate bits and all patterns must match).
  void program_opcode(u8 opcode, u16 gid_bitmap, u8 dp_sel);

  /// Add a kernel's interest to existing entries (OR semantics, so several
  /// kernels can watch the same instruction).
  void add_interest(u8 opcode, u8 funct3, u8 gid, u8 dp_sel);
  void add_interest_opcode(u8 opcode, u8 gid, u8 dp_sel);

  void clear();

  const FilterEntry& lookup(u32 enc) const { return table_[isa::filter_index(enc)]; }
  const FilterEntry& entry(u16 index) const { return table_[index]; }

 private:
  std::array<FilterEntry, isa::kFilterTableSize> table_{};
};

struct EventFilterConfig {
  u32 width = 4;       // number of mini-filters (== lanes it can pre-check)
  u32 fifo_depth = 16; // paired FIFO depth per lane (Table II: 16-entry FIFO)
};

struct EventFilterStats {
  u64 committed_seen = 0;
  u64 valid_packets = 0;
  u64 invalid_packets = 0;
  u64 lane_rejects_width = 0;  // commits refused because lane >= width
  u64 lane_rejects_full = 0;   // commits refused because the lane FIFO is full
  u64 arbiter_output = 0;
  u64 arbiter_blocked = 0;     // cycles the arbiter had a packet but no room
};

/// Superscalar event filter: per-lane mini-filters + paired FIFOs + the
/// reordering arbiter.
class EventFilter {
 public:
  explicit EventFilter(const EventFilterConfig& cfg);

  FilterTable& table() { return table_; }
  const FilterTable& table() const { return table_; }

  /// Can commit lane `lane` hand an instruction to its mini-filter this
  /// cycle? (False ⇒ the core must stall this commit slot.) Inline: runs
  /// for every retiring lane.
  bool lane_ready(u32 lane) const {
    // A filter narrower than the commit width refuses the extra lanes.
    return lane < cfg_.width && occupancy_[lane] < cfg_.fifo_depth;
  }

  /// Why lane_ready() failed (for stall attribution).
  bool lane_blocked_by_width(u32 lane) const { return lane >= cfg_.width; }

  /// Commit lane `lane` retires `p_in`: run the mini-filter look-up and push
  /// a (valid or ordering-placeholder) packet. Caller must have checked
  /// lane_ready().
  void offer(u32 lane, const Packet& p_in);

  /// Mark `p` selected by SRAM entry `e` and blank the data paths the entry
  /// did not read ("avoiding reads of information not selected"). The one
  /// copy of the classification rule, shared by offer() and the frontend's
  /// extract-on-demand commit path.
  static void apply_entry(Packet& p, const FilterEntry& e) {
    p.valid = true;
    p.gid_bitmap = e.gid_bitmap;
    p.dp_sel = e.dp_sel;
    if (!(e.dp_sel & kDpPrf)) p.data = 0;
    if (!(e.dp_sel & (kDpLsq | kDpFtq))) p.addr = 0;
  }

  /// Fast placeholder path for a commit the mini-filter drops (gid bitmap
  /// zero), used by the frontend once it has done the SRAM look-up itself.
  /// With no valid packet buffered anywhere, the placeholder would be
  /// popped by the very next drop_placeholders pass (same fast cycle,
  /// before any occupancy check can observe it), so it is accounted but
  /// never materialized; otherwise it takes the normal FIFO slot so the
  /// capacity back-pressure stays cycle-exact.
  void offer_placeholder(u32 lane, u64 seq);

  /// Valid (routable) packet whose mini-filter entry the caller looked up.
  void offer_valid(u32 lane, const Packet& p);

  /// Arbiter: peek the next in-order valid packet, if any is ready this
  /// cycle. Invalid placeholders are skipped (and popped) for free.
  bool arbiter_peek(Packet& out);

  /// Consume the packet previously peeked (downstream accepted it).
  void arbiter_pop();

  /// Record that the arbiter was blocked for `n` cycles (stats only).
  void note_blocked(u64 n = 1) { stats_.arbiter_blocked += n; }

  /// Total buffered packets (valid + placeholders) across lane FIFOs. O(1).
  size_t buffered() const { return order_.size(); }
  /// Buffered packets the arbiter still has to emit. O(1).
  size_t valid_buffered() const { return valid_.size(); }
  bool any_fifo_full() const;

  const EventFilterConfig& config() const { return cfg_; }
  const EventFilterStats& stats() const { return stats_; }

 private:
  /// One buffered entry in commit order: {lane, valid}.
  static u8 tag(u32 lane, bool valid) {
    return static_cast<u8>(lane << 1 | (valid ? 1u : 0u));
  }
  void push_tag(u32 lane, bool valid);
  /// Resolve the placeholders ahead of the oldest valid packet (all of them
  /// when nothing valid is buffered). Afterwards the front tag, if any, is
  /// the in-order valid head.
  void drop_placeholders();
  /// FG_INVARIANT witness: the per-lane occupancy counters equal a walk of
  /// the tag queue, each within the FIFO depth, and the valid tags number
  /// exactly the buffered packets. Debug-build only; O(width * depth).
  bool counters_consistent() const;

  EventFilterConfig cfg_;
  FilterTable table_;
  RingQueue<u8> order_;       // every buffered entry's tag, commit order
  RingQueue<Packet> valid_;   // the valid entries' packets, commit order
  std::vector<u32> occupancy_;  // per-lane FIFO occupancy
  EventFilterStats stats_;
  /// Commit-order witness for FG_INVARIANT: the last seq pushed.
  u64 last_seq_ = 0;
};

}  // namespace fg::core
