// Set-associative cache latency model with MSHR-limited miss concurrency.
//
// The simulator needs cache behaviour for two reasons: (1) baseline core IPC
// (and hence FireGuard's event *rate*) depends on it, and (2) the paper's
// AddressSanitizer detection-latency tail (Figure 8) is caused by TLB and
// cache misses piling up inside the analysis engines. Tags and replacement
// are modelled exactly; timing is a latency model (an access returns its
// total latency rather than occupying ports cycle by cycle), with MSHRs
// limiting miss-level parallelism.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.h"

namespace fg::mem {

struct CacheConfig {
  u32 size_bytes = 32 * 1024;
  u32 ways = 8;
  u32 line_bytes = 64;
  u32 hit_latency = 3;  // cycles, load-to-use
  u32 mshrs = 8;        // outstanding misses
  /// Added miss cost when the victim line is dirty (write-back port busy).
  /// 0 keeps the calibrated latency model; dirty/writeback *statistics* are
  /// maintained either way.
  u32 writeback_penalty = 0;
};

struct CacheStats {
  u64 accesses = 0;
  u64 misses = 0;
  u64 mshr_stalls = 0;  // accesses delayed because all MSHRs were busy
  u64 writes = 0;
  u64 writebacks = 0;   // dirty lines evicted
  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

class Cache {
 public:
  Cache(const CacheConfig& cfg, std::string name);

  struct Result {
    u32 latency = 0;  // total cycles including any miss handling below
    bool hit = false;
  };

  /// Access `addr` at time `now`. `miss_latency` is the cost of fetching the
  /// line from the next level (already computed by the caller for this
  /// access). MSHR saturation adds delay until the oldest miss retires.
  /// `write` marks the line dirty (write-allocate, write-back).
  Result access(u64 addr, Cycle now, u32 miss_latency, bool write = false);

  /// Like `access`, but the next-level fetch cost is computed only on a
  /// miss. Replaces the would_hit-then-access idiom (the hierarchy must not
  /// touch lower levels on a hit) with a single tag scan; state and stats
  /// end up identical, the callable being invoked exactly when a
  /// pre-checked miss would have computed its latency argument.
  template <typename MissLatencyFn>
  Result access_lazy(u64 addr, Cycle now, MissLatencyFn&& miss_latency,
                     bool write = false) {
    ++stats_.accesses;
    if (write) ++stats_.writes;
    ++use_clock_;
    const u64 set = set_of(addr);
    const u64 tag = tag_of(addr);
    Line* line = lines_.data() + set * cfg_.ways;
    for (u32 w = 0; w < cfg_.ways; ++w) {
      Line& l = line[w];
      if (l.valid && l.tag == tag) {
        l.last_use = use_clock_;
        l.dirty |= write;
        return {cfg_.hit_latency, true};
      }
    }
    return miss_fill(addr, now, miss_latency(), write);
  }

  /// Tag probe without side effects.
  bool would_hit(u64 addr) const;

  /// Install the line containing `addr` without timing or statistics side
  /// effects (functional warming before a measured run).
  void warm_line(u64 addr);

  /// Functionally warm [lo, hi): the same end state as `warm_line(a)` for
  /// every 64-byte step `a` from `lo & ~63` below `hi`, in O(capacity)
  /// rather than O(footprint) time when the region is at least twice the
  /// cache and holds no resident line (the rule is argued in cache.cc).
  void warm_range(u64 lo, u64 hi);

  /// True when tags, valid/dirty bits, way placement, LRU stamps and the
  /// use clock all equal `o`'s (lets tests compare two warming paths).
  bool same_state(const Cache& o) const;

  /// Invalidate everything (used between experiment phases).
  void flush();

  /// Zero the counters (after warming).
  void reset_stats() { stats_ = CacheStats{}; }

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

 private:
  /// Miss path shared by access / access_lazy: MSHR admission, victim
  /// selection, write-back, fill.
  Result miss_fill(u64 addr, Cycle now, u32 miss_latency, bool write);

  struct Line {
    u64 tag = ~u64{0};
    u64 last_use = 0;
    bool valid = false;
    bool dirty = false;
    bool operator==(const Line&) const = default;
  };

  /// Whether any valid line lies in the `n` 64-byte lines from line
  /// number `first` (one scan over every way of every set).
  bool holds_any_line(u64 first, u64 n) const;

  // Line size and set count are powers of two: set and tag are shifts.
  u64 set_of(u64 addr) const { return (addr >> line_shift_) & (n_sets_ - 1); }
  u64 tag_of(u64 addr) const { return addr >> tag_shift_; }

  CacheConfig cfg_;
  std::string name_;
  u64 n_sets_;
  u32 line_shift_;  // log2(line_bytes)
  u32 tag_shift_;   // log2(line_bytes * n_sets)
  std::vector<Line> lines_;           // n_sets * ways
  std::vector<Cycle> mshr_done_;      // completion times of in-flight misses
  CacheStats stats_;
  u64 use_clock_ = 0;
};

}  // namespace fg::mem
