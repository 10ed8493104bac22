#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/mem/tlb.h"

namespace fg::mem {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb t(TlbConfig{4, 4096, 50}, "t");
  EXPECT_EQ(t.access(0x1000), 50u);
  EXPECT_EQ(t.access(0x1fff), 0u);  // same page
  EXPECT_EQ(t.access(0x2000), 50u);
}

TEST(Tlb, CapacityAndLru) {
  Tlb t(TlbConfig{2, 4096, 50}, "t");
  t.access(0x0000);
  t.access(0x1000);
  t.access(0x0000);        // refresh page 0; page 1 is LRU
  t.access(0x2000);        // evicts page 1
  EXPECT_TRUE(t.would_hit(0x0000));
  EXPECT_FALSE(t.would_hit(0x1000));
  EXPECT_TRUE(t.would_hit(0x2000));
}

TEST(Tlb, StatsAndFlush) {
  Tlb t(TlbConfig{8, 4096, 30}, "t");
  t.access(0x4000);
  t.access(0x4000);
  EXPECT_EQ(t.stats().accesses, 2u);
  EXPECT_EQ(t.stats().misses, 1u);
  t.flush();
  EXPECT_FALSE(t.would_hit(0x4000));
  t.reset_stats();
  EXPECT_EQ(t.stats().accesses, 0u);
}

class TlbEntries : public ::testing::TestWithParam<u32> {};

TEST_P(TlbEntries, HoldsExactlyCapacityPages) {
  const u32 n = GetParam();
  Tlb t(TlbConfig{n, 4096, 40}, "t");
  for (u32 i = 0; i < n; ++i) t.access(static_cast<u64>(i) * 4096);
  u32 resident = 0;
  for (u32 i = 0; i < n; ++i) resident += t.would_hit(static_cast<u64>(i) * 4096);
  EXPECT_EQ(resident, n);
  t.access(static_cast<u64>(n) * 4096);
  resident = 0;
  for (u32 i = 0; i <= n; ++i) resident += t.would_hit(static_cast<u64>(i) * 4096);
  EXPECT_EQ(resident, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbEntries, ::testing::Values(1, 4, 16, 32));

/// Reference: the array-of-structs LRU the packed Tlb replaced (division
/// for the page number, one combined hit/victim scan). The packed arrays,
/// the last-hit memo and the page shift must reproduce its hit/miss
/// sequence and stats exactly.
class ReferenceTlb {
 public:
  ReferenceTlb(u32 entries, u32 page_bytes)
      : page_bytes_(page_bytes), entries_(entries) {}

  bool lookup_fill(u64 vaddr) {
    ++accesses;
    ++use_clock_;
    const u64 vpn = vaddr / page_bytes_;
    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.valid && e.vpn == vpn) {
        e.last_use = use_clock_;
        return true;
      }
      if (!e.valid || (victim->valid && e.last_use < victim->last_use)) {
        victim = &e;
      }
    }
    ++misses;
    victim->valid = true;
    victim->vpn = vpn;
    victim->last_use = use_clock_;
    return false;
  }

  bool would_hit(u64 vaddr) const {
    for (const Entry& e : entries_) {
      if (e.valid && e.vpn == vaddr / page_bytes_) return true;
    }
    return false;
  }

  void flush() {
    for (Entry& e : entries_) e = Entry{};
  }

  u64 accesses = 0;
  u64 misses = 0;

 private:
  struct Entry {
    u64 vpn = ~u64{0};
    u64 last_use = 0;
    bool valid = false;
  };
  u64 page_bytes_;
  std::vector<Entry> entries_;
  u64 use_clock_ = 0;
};

TEST(Tlb, PackedLruMatchesArrayOfStructsReference) {
  for (const u32 entries : {1u, 2u, 32u}) {
    for (const u32 page : {4096u, 64u}) {
      Tlb t(TlbConfig{entries, page, 80}, "t");
      ReferenceTlb ref(entries, page);
      Rng rng(0x71b0 + entries * 7 + page);
      // A working set a bit larger than the TLB, with runs on one page
      // (the memo's case) and occasional far addresses.
      const u64 pages = entries + 3;
      for (int i = 0; i < 20'000; ++i) {
        if (i == 9'000) {
          t.flush();
          ref.flush();
        }
        u64 vaddr = rng.below(pages) * page + rng.below(page);
        if (rng.chance(0.05)) vaddr = rng.next() >> 8;
        const bool hit = ref.lookup_fill(vaddr);
        ASSERT_EQ(t.lookup_fill(vaddr), hit)
            << "entries " << entries << " page " << page << " access " << i;
        const u64 probe = rng.below(pages) * page;
        ASSERT_EQ(t.would_hit(probe), ref.would_hit(probe)) << i;
      }
      EXPECT_EQ(t.stats().accesses, ref.accesses);
      EXPECT_EQ(t.stats().misses, ref.misses);
    }
  }
}

}  // namespace
}  // namespace fg::mem
