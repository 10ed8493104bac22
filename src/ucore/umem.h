// Sparse 64-bit address-space memory shared by the µcores of one guardian
// kernel (shadow stacks, AddressSanitizer shadow bytes, UaF quarantine maps
// all live here, as they live behind the shared L2 in the real system).
// Functional state is global and instantly coherent; per-engine caches and
// µTLBs model timing only — see DESIGN.md §6 for the coherence caveat.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "src/common/types.h"

namespace fg::ucore {

class USharedMemory {
 public:
  u64 load(u64 addr, u32 size) const;
  void store(u64 addr, u32 size, u64 value);

  u8 load_u8(u64 addr) const { return static_cast<u8>(load(addr, 1)); }
  void store_u8(u64 addr, u8 v) { store(addr, 1, v); }

  size_t pages_touched() const { return pages_.size(); }
  void clear() {
    pages_.clear();
    memo_page_ = nullptr;
  }

 private:
  static constexpr u32 kPageShift = 12;
  static constexpr u64 kPageBytes = u64{1} << kPageShift;
  using Page = std::array<u8, kPageBytes>;

  /// The page holding page frame `pfn`; nullptr if absent and !create.
  Page* page_for(u64 pfn, bool create) const;

  mutable std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  // The last page found or created (pages never move: they are heap
  // nodes). Accesses cluster in a few shadow pages, so most skip the hash.
  mutable u64 memo_pfn_ = 0;
  mutable Page* memo_page_ = nullptr;
};

}  // namespace fg::ucore
