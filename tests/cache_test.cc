#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/mem/cache.h"
#include "src/mem/hierarchy.h"

namespace fg::mem {
namespace {

CacheConfig tiny() { return CacheConfig{1024, 2, 64, 2, 2}; }  // 8 sets

TEST(Cache, FirstAccessMissesThenHits) {
  Cache c(tiny(), "t");
  const auto r1 = c.access(0x1000, 0, 10);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.latency, 12u);  // hit latency + miss fill
  const auto r2 = c.access(0x1000, 20, 10);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.latency, 2u);
}

TEST(Cache, SameLineHits) {
  Cache c(tiny(), "t");
  c.access(0x1000, 0, 10);
  EXPECT_TRUE(c.access(0x103f, 20, 10).hit);   // same 64B line
  EXPECT_FALSE(c.access(0x1040, 30, 10).hit);  // next line
}

TEST(Cache, LruEvictsOldest) {
  Cache c(tiny(), "t");  // 2-way, 8 sets, set stride = 64*8 = 512
  const u64 a = 0x0, b = 0x200, d = 0x400;  // all map to set 0
  c.access(a, 0, 10);
  c.access(b, 1, 10);
  c.access(a, 2, 10);      // refresh a; b is now LRU
  c.access(d, 3, 10);      // evicts b
  EXPECT_TRUE(c.would_hit(a));
  EXPECT_FALSE(c.would_hit(b));
  EXPECT_TRUE(c.would_hit(d));
}

TEST(Cache, MshrSaturationDelays) {
  CacheConfig cfg = tiny();
  cfg.mshrs = 2;
  Cache c(cfg, "t");
  c.access(0x0000, 0, 100);   // miss, completes ~102
  c.access(0x1000, 0, 100);   // miss, completes ~102
  const auto r = c.access(0x2000, 0, 100);  // both MSHRs busy
  EXPECT_FALSE(r.hit);
  EXPECT_GT(r.latency, 102u);  // waited for an MSHR
  EXPECT_EQ(c.stats().mshr_stalls, 1u);
}

TEST(Cache, WarmLineInstallsWithoutStats) {
  Cache c(tiny(), "t");
  c.warm_line(0x3000);
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.would_hit(0x3000));
  EXPECT_TRUE(c.access(0x3000, 0, 10).hit);
}

TEST(Cache, FlushInvalidates) {
  Cache c(tiny(), "t");
  c.access(0x1000, 0, 10);
  c.flush();
  EXPECT_FALSE(c.would_hit(0x1000));
}

TEST(Cache, StatsAccumulate) {
  Cache c(tiny(), "t");
  c.access(0x1000, 0, 10);
  c.access(0x1000, 1, 10);
  c.access(0x2000, 2, 10);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_NEAR(c.stats().miss_rate(), 2.0 / 3.0, 1e-12);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
}

class CacheWays : public ::testing::TestWithParam<u32> {};

TEST_P(CacheWays, AssociativityHoldsWorkingSet) {
  const u32 ways = GetParam();
  Cache c(CacheConfig{64 * 8 * ways, ways, 64, 1, 4}, "t");  // 8 sets
  // `ways` lines mapping to set 0 must all be resident.
  for (u32 i = 0; i < ways; ++i) c.access(i * 64 * 8, i, 10);
  for (u32 i = 0; i < ways; ++i) {
    EXPECT_TRUE(c.would_hit(i * 64 * 8)) << "way " << i;
  }
  // One more conflicting line evicts exactly one.
  c.access(ways * 64ull * 8, ways, 10);
  u32 resident = 0;
  for (u32 i = 0; i <= ways; ++i) resident += c.would_hit(i * 64ull * 8);
  EXPECT_EQ(resident, ways);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWays, ::testing::Values(1, 2, 4, 8));

TEST(Hierarchy, MissCostDecreasesWithLocality) {
  MemHierarchy mem;
  const u32 cold = mem.access_data(0x5000, false, 0);
  const u32 warm = mem.access_data(0x5000, false, 1000);
  EXPECT_GT(cold, warm);
  EXPECT_LE(warm, 4u);  // L1 hit (+TLB hit)
}

TEST(Hierarchy, WarmRegionAvoidsDramLatency) {
  MemHierarchy a, b;
  b.warm_region(0x10000, 0x10000 + 64 * 1024);
  b.reset_stats();
  // First touch in `a` goes to DRAM; in `b` it stops at the L2.
  const u32 cold = a.access_data(0x10040, false, 0);
  const u32 warmed = b.access_data(0x10040, false, 0);
  EXPECT_GT(cold, warmed + 50);
}

TEST(Hierarchy, InstAccessesUseL1i) {
  MemHierarchy mem;
  mem.access_inst(0x8000, 0);
  EXPECT_EQ(mem.l1i().stats().accesses, 1u);
  EXPECT_EQ(mem.l1d().stats().accesses, 0u);
}

/// Reference tag store indexed by division (the form the shift indexing
/// replaced), with the same LRU / invalid-way victim rule. Over random
/// streams the real cache's hit/miss sequence must match it exactly.
class DivisionTags {
 public:
  explicit DivisionTags(const CacheConfig& c)
      : line_(c.line_bytes),
        ways_(c.ways),
        sets_(c.size_bytes / c.line_bytes / c.ways),
        lines_(sets_ * ways_) {}

  bool access(u64 addr) {
    ++clock_;
    const u64 set = (addr / line_) % sets_;
    const u64 tag = addr / line_ / sets_;
    Line* victim = nullptr;
    for (u64 w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (l.valid && l.tag == tag) {
        l.last_use = clock_;
        return true;
      }
    }
    for (u64 w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (!victim || !l.valid ||
          (victim->valid && l.last_use < victim->last_use)) {
        victim = &l;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->last_use = clock_;
    return false;
  }

 private:
  struct Line {
    u64 tag = 0;
    u64 last_use = 0;
    bool valid = false;
  };
  u64 line_, ways_, sets_;
  std::vector<Line> lines_;
  u64 clock_ = 0;
};

TEST(Cache, ShiftIndexingMatchesDivisionReference) {
  const std::vector<CacheConfig> geometries = {
      {1024, 2, 64, 2, 4},        // 8 sets
      {32 * 1024, 8, 64, 3, 8},   // Table II L1
      {512, 8, 64, 2, 4},         // one set, fully associative
      {4096, 1, 64, 2, 4},        // direct-mapped, 64 sets
      {256, 1, 256, 2, 4},        // one set, one way
      {8192, 4, 32, 2, 4},        // 32-byte lines
  };
  for (const CacheConfig& g : geometries) {
    Cache c(g, "t");
    DivisionTags ref(g);
    Rng rng(0xcac4e + g.size_bytes + g.ways);
    const u64 span = static_cast<u64>(g.size_bytes) * 3;
    for (int i = 0; i < 20'000; ++i) {
      u64 addr = rng.below(span);
      if (rng.chance(0.1)) addr = rng.next();  // high tag bits
      const bool hit = ref.access(addr);
      ASSERT_EQ(c.access(addr, static_cast<Cycle>(i) * 100, 10).hit, hit)
          << g.size_bytes << "B/" << g.ways << "w/" << g.line_bytes
          << "B access " << i;
    }
  }
}

/// Reference for warm_range: warm_line at every 64-byte step.
void warm_per_line(Cache& c, u64 lo, u64 hi) {
  for (u64 a = lo & ~u64{63}; a < hi; a += 64) c.warm_line(a);
}

/// warm_range must leave exactly the state of the per-line loop, whether it
/// skips (long region, nothing resident) or falls back (short region, a
/// resident line inside, line_bytes != 64), on random geometries after
/// random traffic with dirty lines.
TEST(Cache, WarmRangeMatchesPerLineLoop) {
  Rng rng(0x3a7e);
  for (int trial = 0; trial < 1000; ++trial) {
    const u32 ways = static_cast<u32>(rng.range(1, 8));
    const u32 sets = 1u << rng.below(7);  // 1..64
    u32 line = 64;
    if (trial % 10 == 0) line = trial % 20 == 0 ? 32 : 128;
    const CacheConfig g{sets * ways * line, ways, line, 2, 4};
    Cache fast(g, "fast");
    Cache ref(g, "ref");
    const u64 cap = u64{sets} * ways;
    const u64 span = cap * 64 * 4;

    auto traffic = [&](int n) {
      for (int i = 0; i < n; ++i) {
        const u64 addr = rng.below(span);
        const bool write = rng.chance(0.3);
        const Cycle now = static_cast<Cycle>(trial) * 10'000 + i;
        EXPECT_EQ(fast.access(addr, now, 10, write).hit,
                  ref.access(addr, now, 10, write).hit);
      }
    };
    traffic(static_cast<int>(rng.below(3 * cap + 1)));

    u64 prev_lo = 0, prev_hi = span;
    for (int r = 0; r < 4; ++r) {
      // Up to five capacities long: both sides of the 2x threshold.
      const u64 len = rng.range(1, 5 * cap * 64);
      u64 lo = 0;
      switch (rng.below(3)) {
        case 0:  // untouched addresses: nothing resident
          lo = (u64{1} << 40) * static_cast<u64>(trial + 1) +
               static_cast<u64>(r) * (8 * cap * 64);
          break;
        case 1:  // overlaps the previous region or the traffic
          lo = prev_lo + rng.below(prev_hi - prev_lo);
          break;
        default:  // adjacent to the previous region
          lo = prev_hi;
          break;
      }
      if (rng.chance(0.5)) lo += rng.below(64);  // unaligned start
      fast.warm_range(lo, lo + len);
      warm_per_line(ref, lo, lo + len);
      ASSERT_TRUE(fast.same_state(ref))
          << "trial " << trial << " region " << r << ": " << sets << " sets x "
          << ways << " ways, " << line << "B lines, [" << lo << ", "
          << lo + len << ")";
      prev_lo = lo;
      prev_hi = lo + len;
      traffic(static_cast<int>(rng.below(cap + 1)));
    }
  }
}

/// The Table II LLC over a 64 MB stream region (the memstall footprint):
/// the skip fires and must still match the per-line loop.
TEST(Cache, WarmRangeMatchesPerLineLoopOnLlc) {
  const CacheConfig llc{4 * 1024 * 1024, 8, 64, 30, 8};
  Cache fast(llc, "fast");
  Cache ref(llc, "ref");
  for (u64 a = 0; a < (1u << 20); a += 4096) {
    fast.access(a, a, 10, /*write=*/true);
    ref.access(a, a, 10, /*write=*/true);
  }
  const u64 lo = 0x10'0000'0000ull, hi = lo + (64ull << 20) + 192;
  fast.warm_range(lo, hi);
  warm_per_line(ref, lo, hi);
  EXPECT_TRUE(fast.same_state(ref));
  EXPECT_TRUE(fast.would_hit(hi - 1));
  EXPECT_FALSE(fast.would_hit(hi - (4ull << 20) - 64));
}

}  // namespace
}  // namespace fg::mem
