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

}  // namespace
}  // namespace fg::mem
