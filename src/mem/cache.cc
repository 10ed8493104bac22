#include "src/mem/cache.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace fg::mem {

Cache::Cache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {
  FG_CHECK(is_pow2(cfg_.line_bytes));
  FG_CHECK(cfg_.ways > 0);
  n_sets_ = cfg_.size_bytes / cfg_.line_bytes / cfg_.ways;
  FG_CHECK(n_sets_ > 0 && is_pow2(n_sets_));
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<u32>(std::countr_zero(n_sets_));
  lines_.assign(n_sets_ * cfg_.ways, Line{});
  mshr_done_.reserve(cfg_.mshrs);
}

bool Cache::would_hit(u64 addr) const {
  const u64 set = set_of(addr);
  const u64 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return true;
  }
  return false;
}

Cache::Result Cache::access(u64 addr, Cycle now, u32 miss_latency, bool write) {
  return access_lazy(addr, now, [miss_latency] { return miss_latency; }, write);
}

Cache::Result Cache::miss_fill(u64 addr, Cycle now, u32 miss_latency,
                               bool write) {
  const u64 set = set_of(addr);
  const u64 tag = tag_of(addr);
  // Victim selection (same rule the combined loop used: any invalid way
  // wins — the last one scanned — else the least recently used way).
  Line* victim = nullptr;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[set * cfg_.ways + w];
    if (!victim || !l.valid || (victim->valid && l.last_use < victim->last_use)) {
      victim = &l;
    }
  }

  // Miss: MSHR admission first.
  ++stats_.misses;
  u32 extra = 0;
  std::erase_if(mshr_done_, [now](Cycle c) { return c <= now; });
  if (mshr_done_.size() >= cfg_.mshrs) {
    const Cycle oldest = *std::min_element(mshr_done_.begin(), mshr_done_.end());
    extra = static_cast<u32>(oldest > now ? oldest - now : 0);
    ++stats_.mshr_stalls;
    std::erase_if(mshr_done_, [oldest](Cycle c) { return c <= oldest; });
  }

  FG_CHECK(victim != nullptr);
  // Write-back: evicting a dirty victim occupies the fill path.
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    extra += cfg_.writeback_penalty;
  }
  const u32 total = cfg_.hit_latency + extra + miss_latency;
  mshr_done_.push_back(now + total);

  victim->valid = true;
  victim->tag = tag;
  victim->last_use = use_clock_;
  victim->dirty = write;
  return {total, false};
}

void Cache::warm_line(u64 addr) {
  ++use_clock_;
  const u64 set = set_of(addr);
  const u64 tag = tag_of(addr);
  Line* victim = nullptr;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) {
      l.last_use = use_clock_;
      return;
    }
    if (!victim || !l.valid || (victim->valid && l.last_use < victim->last_use)) {
      victim = &l;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = use_clock_;
}

// Exactness of the skip. With 64-byte lines the region is n consecutive
// lines, so any C = sets * ways consecutive of them put exactly `ways` lines
// into every set. When no line of the region is resident, every warm_line is
// a miss, and within one set:
//  * the first `ways` misses take the invalid ways, then the older residents
//    (a region line is always more recently used than any resident, so it
//    is never the LRU victim while a resident remains);
//  * from then on every miss evicts the region line installed `ways` misses
//    earlier, so way placement repeats with period `ways`;
//  * warm_line never writes a dirty bit, so each way keeps its own.
// Skipping k * C lines (k >= 1) skips k * ways misses in every set. The
// lines warmed after the skip see the same initial set state, so they take
// the same ways, and with use_clock_ advanced by k * C they get the same
// last_use stamps. A tail of at least C lines gives every set at least
// `ways` of them, which overwrite every way the skipped lines would have
// held. Tags, valid/dirty bits, placement, stamps and the clock all match the
// per-line loop. Any other case (a resident line inside the region, a region
// under 2 * C lines, line_bytes != 64) runs the per-line loop whole.
void Cache::warm_range(u64 lo, u64 hi) {
  u64 a = lo & ~u64{63};
  if (a >= hi) return;
  const u64 n = (hi - a - 1) / 64 + 1;
  const u64 cap = n_sets_ * cfg_.ways;
  if (cfg_.line_bytes == 64 && n >= 2 * cap && !holds_any_line(a >> 6, n)) {
    const u64 skip = (n / cap - 1) * cap;
    use_clock_ += skip;
    a += skip * 64;
  }
  for (; a < hi; a += 64) warm_line(a);
}

bool Cache::holds_any_line(u64 first, u64 n) const {
  const u32 set_bits = tag_shift_ - line_shift_;
  for (u64 i = 0; i < lines_.size(); ++i) {
    const Line& l = lines_[i];
    const u64 line_no = (l.tag << set_bits) | (i / cfg_.ways);
    if (l.valid && line_no - first < n) return true;
  }
  return false;
}

bool Cache::same_state(const Cache& o) const {
  return lines_ == o.lines_ && use_clock_ == o.use_clock_;
}

void Cache::flush() {
  for (auto& l : lines_) l = Line{};
  mshr_done_.clear();
}

}  // namespace fg::mem
