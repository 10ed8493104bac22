#include "src/mem/hierarchy.h"

namespace fg::mem {

MemHierarchy::MemHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg),
      l1i_(cfg.l1i, "L1I"),
      l1d_(cfg.l1d, "L1D"),
      l2_(cfg.l2, "L2"),
      llc_(cfg.llc, "LLC"),
      itlb_(cfg.itlb, "ITLB"),
      dtlb_(cfg.dtlb, "DTLB") {
  if (cfg_.detailed_dram) dram_.emplace(cfg_.dram);
  if (cfg_.detailed_ptw) {
    // PTE reads go through the L2 → LLC → memory path like any data access
    // (page tables are cached), bypassing the L1D (BOOM's PTW port).
    ptw_.emplace(cfg_.ptw,
                 [this](u64 addr, Cycle now) { return beyond_l1(addr, now); });
  }
}

u32 MemHierarchy::memory_latency(u64 addr, Cycle now) {
  return dram_ ? dram_->access(addr, now) : cfg_.dram_latency;
}

u32 MemHierarchy::beyond_l1(u64 addr, Cycle now, bool write) {
  // Cost of servicing an L1 miss: L2, then LLC, then DRAM — each level is
  // consulted only when the previous one misses (access_lazy defers each
  // lower level to the miss path, one tag scan per level).
  return l2_
      .access_lazy(
          addr, now,
          [&] {
            return llc_
                .access_lazy(
                    addr, now, [&] { return memory_latency(addr, now); }, write)
                .latency;
          },
          write)
      .latency;
}

u32 MemHierarchy::translate(Tlb& tlb, u64 vaddr, Cycle now) {
  if (!ptw_) return tlb.access(vaddr);
  return tlb.lookup_fill(vaddr) ? 0 : ptw_->walk(vaddr, now);
}

u32 MemHierarchy::access_data(u64 vaddr, bool write, Cycle now) {
  const u32 tlb = translate(dtlb_, vaddr, now);
  const u32 lat =
      l1d_.access_lazy(
              vaddr, now, [&] { return beyond_l1(vaddr, now, write); }, write)
          .latency;
  return tlb + lat;
}

u32 MemHierarchy::access_inst(u64 vaddr, Cycle now) {
  const u32 tlb = translate(itlb_, vaddr, now);
  const u32 lat =
      l1i_.access_lazy(vaddr, now, [&] { return beyond_l1(vaddr, now); })
          .latency;
  return tlb + lat;
}

void MemHierarchy::warm_region(u64 lo, u64 hi) {
  // The two levels share no state, so warming one after the other ends
  // where the line-interleaved loop did.
  llc_.warm_range(lo, hi);
  l2_.warm_range(lo, hi);
}

void MemHierarchy::reset_stats() {
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
  llc_.reset_stats();
  itlb_.reset_stats();
  dtlb_.reset_stats();
  if (dram_) dram_->reset_stats();
}

void MemHierarchy::flush() {
  l1i_.flush();
  l1d_.flush();
  l2_.flush();
  llc_.flush();
  itlb_.flush();
  dtlb_.flush();
}

}  // namespace fg::mem
