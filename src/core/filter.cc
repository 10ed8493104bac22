#include "src/core/filter.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace fg::core {

void FilterTable::program(u8 opcode, u8 funct3, u16 gid_bitmap, u8 dp_sel) {
  FG_CHECK(opcode < 128 && funct3 < 8);
  table_[(static_cast<u16>(funct3) << 7) | opcode] = {gid_bitmap, dp_sel};
}

void FilterTable::program_opcode(u8 opcode, u16 gid_bitmap, u8 dp_sel) {
  for (u8 f3 = 0; f3 < 8; ++f3) program(opcode, f3, gid_bitmap, dp_sel);
}

void FilterTable::add_interest(u8 opcode, u8 funct3, u8 gid, u8 dp_sel) {
  FG_CHECK(gid < kMaxGids);
  FilterEntry& e = table_[(static_cast<u16>(funct3) << 7) | opcode];
  e.gid_bitmap |= static_cast<u16>(1u << gid);
  e.dp_sel |= dp_sel;
}

void FilterTable::add_interest_opcode(u8 opcode, u8 gid, u8 dp_sel) {
  for (u8 f3 = 0; f3 < 8; ++f3) add_interest(opcode, f3, gid, dp_sel);
}

void FilterTable::clear() { table_.fill(FilterEntry{}); }

EventFilter::EventFilter(const EventFilterConfig& cfg)
    : cfg_(cfg),
      order_(size_t{cfg.width} * cfg.fifo_depth),
      valid_(order_.capacity()),
      occupancy_(cfg.width, 0) {
  FG_CHECK(cfg_.width >= 1);
  FG_CHECK(cfg_.width <= 128);  // the lane shares a u8 tag with the valid bit
  FG_CHECK(cfg_.fifo_depth >= 2);
}

void EventFilter::offer(u32 lane, const Packet& p_in) {
  FG_CHECK(lane < cfg_.width);
  const FilterEntry& e = table_.lookup(p_in.inst);
  if (e.gid_bitmap != 0) {
    Packet p = p_in;
    apply_entry(p, e);
    offer_valid(lane, p);
  } else {
    offer_placeholder(lane, p_in.seq);
  }
}

void EventFilter::push_tag(u32 lane, bool valid) {
  FG_CHECK(lane_ready(lane));
  order_.push(tag(lane, valid));
  ++occupancy_[lane];
}

void EventFilter::offer_valid(u32 lane, const Packet& p) {
  FG_CHECK(p.valid);
  FG_INVARIANT(p.seq >= last_seq_, "filter.commit_order");
  last_seq_ = p.seq;
  ++stats_.committed_seen;
  ++stats_.valid_packets;
  push_tag(lane, true);
  valid_.push(p);
  FG_INVARIANT(counters_consistent(), "filter.occupancy");
}

void EventFilter::offer_placeholder(u32 lane, u64 seq) {
  FG_CHECK(lane_ready(lane));
  FG_INVARIANT(seq >= last_seq_, "filter.commit_order");
  last_seq_ = seq;
  ++stats_.committed_seen;
  ++stats_.invalid_packets;
  // Ordering placeholder (footnote 4): pushed so that the arbiter can prove
  // commit order across lanes, skipped at zero cost on output. With nothing
  // valid buffered anywhere, the next drop_placeholders pass — which runs
  // before any later-cycle occupancy check — would pop it along with every
  // other placeholder, so the push/pop pair is elided entirely.
  if (valid_.empty()) return;
  push_tag(lane, false);
  FG_INVARIANT(counters_consistent(), "filter.occupancy");
}

void EventFilter::drop_placeholders() {
  // A placeholder at a FIFO head can be discarded only once no *older*
  // packet can still arrive: the oldest buffered entry — the front tag —
  // is always safe to resolve, dropped if invalid, emitted if valid.
  if (valid_.empty()) {
    // Only placeholders remain: every one of them is (transitively) the
    // oldest at some point, so clear in bulk.
    if (!order_.empty()) {
      order_.clear();
      std::fill(occupancy_.begin(), occupancy_.end(), 0u);
    }
    return;
  }
  while ((order_.front() & 1u) == 0) {
    --occupancy_[order_.pop() >> 1];
  }
}

bool EventFilter::arbiter_peek(Packet& out) {
  if (order_.empty()) return false;
  drop_placeholders();
  if (valid_.empty()) return false;
  out = valid_.front();
  return true;
}

void EventFilter::arbiter_pop() {
  drop_placeholders();  // a no-op right after the peek that found the head
  FG_CHECK(!valid_.empty());
  --occupancy_[order_.pop() >> 1];
  valid_.pop();
  ++stats_.arbiter_output;
  // Accounting across the whole lazy-drain path: placeholders dropped one
  // by one and in bulk must keep the lane counters in step with the tag
  // queue, and output conservation must hold.
  FG_INVARIANT(counters_consistent(), "filter.occupancy");
  FG_INVARIANT(stats_.arbiter_output <= stats_.valid_packets,
               "filter.conservation");
}

bool EventFilter::counters_consistent() const {
  std::vector<u32> lanes(cfg_.width, 0);
  size_t valid = 0;
  for (size_t i = 0; i < order_.size(); ++i) {
    const u8 t = order_.at(i);
    if ((t >> 1) >= cfg_.width) return false;
    ++lanes[t >> 1];
    if (t & 1u) ++valid;
  }
  for (u32 l = 0; l < cfg_.width; ++l) {
    if (lanes[l] > cfg_.fifo_depth) return false;
  }
  return lanes == occupancy_ && valid == valid_.size();
}

bool EventFilter::any_fifo_full() const {
  for (const u32 n : occupancy_) {
    if (n >= cfg_.fifo_depth) return true;
  }
  return false;
}

}  // namespace fg::core
