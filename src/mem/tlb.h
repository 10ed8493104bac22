// TLB latency model (fully associative, LRU) with a fixed-cost page walk.
//
// The paper explicitly credits its higher-than-prior-work AddressSanitizer
// tail latency to accurate TLB-miss modelling in the analysis engines, so
// the µcores get a small TLB and the main core larger I/D TLBs.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.h"

namespace fg::mem {

struct TlbConfig {
  u32 entries = 32;
  u32 page_bytes = 4096;
  u32 walk_latency = 80;  // cycles for a page-table walk
};

struct TlbStats {
  u64 accesses = 0;
  u64 misses = 0;
  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

class Tlb {
 public:
  Tlb(const TlbConfig& cfg, std::string name);

  /// Translate; returns added latency (0 on hit, walk_latency on miss).
  u32 access(u64 vaddr);

  /// Translate with caller-supplied walk cost: performs the same LRU/fill
  /// bookkeeping as access() but returns hit/miss so the hierarchy can charge
  /// a real page-table walk instead of the flat constant.
  bool lookup_fill(u64 vaddr);

  bool would_hit(u64 vaddr) const;
  void flush();
  void reset_stats() { stats_ = TlbStats{}; }
  const TlbStats& stats() const { return stats_; }

 private:
  /// Index of the valid entry holding `vpn`, or -1.
  int find(u64 vpn) const;

  // Entries as packed arrays (the hit scan reads only vpn_). last_use_ is
  // the LRU stamp; 0 marks an invalid entry, since every access stamps
  // with a pre-incremented clock.
  TlbConfig cfg_;
  std::string name_;
  u32 page_shift_;  // log2(page_bytes)
  std::vector<u64> vpn_;
  std::vector<u64> last_use_;
  u32 last_ = 0;  // entry of the last hit or fill, probed first
  TlbStats stats_;
  u64 use_clock_ = 0;
};

}  // namespace fg::mem
