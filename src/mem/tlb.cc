#include "src/mem/tlb.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace fg::mem {

Tlb::Tlb(const TlbConfig& cfg, std::string name) : cfg_(cfg), name_(std::move(name)) {
  FG_CHECK(cfg_.entries > 0);
  FG_CHECK(is_pow2(cfg_.page_bytes));
  page_shift_ = static_cast<u32>(std::countr_zero(cfg_.page_bytes));
  vpn_.assign(cfg_.entries, ~u64{0});
  last_use_.assign(cfg_.entries, 0);
}

int Tlb::find(u64 vpn) const {
  if (vpn_[last_] == vpn && last_use_[last_] != 0) {
    return static_cast<int>(last_);
  }
  for (u32 i = 0; i < cfg_.entries; ++i) {
    if (vpn_[i] == vpn && last_use_[i] != 0) return static_cast<int>(i);
  }
  return -1;
}

bool Tlb::would_hit(u64 vaddr) const { return find(vaddr >> page_shift_) >= 0; }

u32 Tlb::access(u64 vaddr) {
  return lookup_fill(vaddr) ? 0 : cfg_.walk_latency;
}

bool Tlb::lookup_fill(u64 vaddr) {
  ++stats_.accesses;
  ++use_clock_;
  const u64 vpn = vaddr >> page_shift_;
  const int hit = find(vpn);
  if (hit >= 0) {
    last_ = static_cast<u32>(hit);
    last_use_[last_] = use_clock_;
    return true;
  }
  // Victim: the last invalid entry if any, else the least recently used.
  // Valid stamps are distinct and invalid ones are all 0, so one `<=`
  // argmin scan picks exactly that.
  u32 victim = 0;
  for (u32 i = 1; i < cfg_.entries; ++i) {
    if (last_use_[i] <= last_use_[victim]) victim = i;
  }
  ++stats_.misses;
  vpn_[victim] = vpn;
  last_use_[victim] = use_clock_;
  last_ = victim;
  return false;
}

void Tlb::flush() {
  std::fill(vpn_.begin(), vpn_.end(), ~u64{0});
  std::fill(last_use_.begin(), last_use_.end(), 0);
}

}  // namespace fg::mem
