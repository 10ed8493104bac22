#include "src/ucore/umem.h"

#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace fg::ucore {

// Whole-access copies below rely on the byte order the bytewise path spells
// out: byte i of the value lives at addr + i.
static_assert(std::endian::native == std::endian::little);

USharedMemory::Page* USharedMemory::page_for(u64 pfn, bool create) const {
  if (memo_page_ != nullptr && memo_pfn_ == pfn) return memo_page_;
  auto it = pages_.find(pfn);
  Page* page = nullptr;
  if (it != pages_.end()) {
    page = it->second.get();
  } else {
    if (!create) return nullptr;
    auto fresh = std::make_unique<Page>();
    fresh->fill(0);
    page = fresh.get();
    pages_.emplace(pfn, std::move(fresh));
  }
  memo_pfn_ = pfn;
  memo_page_ = page;
  return page;
}

u64 USharedMemory::load(u64 addr, u32 size) const {
  FG_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  const u64 off = addr & (kPageBytes - 1);
  u64 v = 0;
  if (off + size <= kPageBytes) {
    // One page: a single look-up (an absent page reads as zeros).
    const Page* p = page_for(addr >> kPageShift, false);
    if (p != nullptr) std::memcpy(&v, p->data() + off, size);
    return v;
  }
  // Handle (rare) page-straddling accesses bytewise.
  for (u32 i = 0; i < size; ++i) {
    const u64 a = addr + i;
    const Page* p = page_for(a >> kPageShift, false);
    const u8 byte = p ? (*p)[a & (kPageBytes - 1)] : 0;
    v |= static_cast<u64>(byte) << (8 * i);
  }
  return v;
}

void USharedMemory::store(u64 addr, u32 size, u64 value) {
  FG_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  const u64 off = addr & (kPageBytes - 1);
  if (off + size <= kPageBytes) {
    std::memcpy(page_for(addr >> kPageShift, true)->data() + off, &value, size);
    return;
  }
  for (u32 i = 0; i < size; ++i) {
    const u64 a = addr + i;
    Page* p = page_for(a >> kPageShift, true);
    (*p)[a & (kPageBytes - 1)] = static_cast<u8>(value >> (8 * i));
  }
}

}  // namespace fg::ucore
