// The high-frequency half of FireGuard, wired into the main core's commit
// stage: data-forwarding channel → mini-filters (+ paired FIFOs + arbiter) →
// allocator → CDC into the low-frequency domain.
//
// Implements boom::CommitSink: the core asks `can_commit` per lane, and a
// refusal (mini-filter FIFO full, or lane beyond the filter width) is the
// back-pressure that slows the main core. Every refusal is attributed to the
// deepest full component, reproducing Figure 9's bottleneck decomposition.
#pragma once

#include <array>

#include "src/boom/core.h"
#include "src/core/allocator.h"
#include "src/core/cdc.h"
#include "src/core/filter.h"
#include "src/core/forwarding.h"

namespace fg::core {

struct FrontendConfig {
  EventFilterConfig filter{};
  u32 cdc_depth = 8;   // Table II: 8-entry CDC
  u32 freq_ratio = 2;  // 3.2 GHz core / 1.6 GHz fabric+engines
  /// Packets the mapper can issue per fast cycle. 1 is the paper's scalar
  /// mapper (sufficient for a 4-wide BOOM, §III-C); >1 models footnote 5's
  /// superscalar mapper with duplicated channels/SEs and per-engine arbiters
  /// — two packets that target the same engine in one cycle still serialize.
  u32 mapper_width = 1;
};

/// Root causes for a refused commit lane (Figure 9 categories).
enum class StallCause : u8 { kNone, kFilter, kMapper, kCdc, kEngines };

struct FrontendStats {
  u64 commits_observed = 0;
  std::array<u64, 5> stall_by_cause{};  // indexed by StallCause
  u64 dropped_unrouted = 0;             // valid packets no SE wanted
  u64 mapper_port_conflicts = 0;        // superscalar-mapper same-engine holds
};

class Frontend final : public boom::CommitSink {
 public:
  explicit Frontend(const FrontendConfig& cfg);

  // --- boom::CommitSink ---
  // can_commit is on the per-commit hot path (called for every retiring
  // lane): keep the common accept inline; only stall attribution goes
  // out of line.
  bool can_commit(u32 lane, const trace::TraceInst& ti) override {
    (void)ti;
    if (filter_.lane_ready(lane)) return true;
    note_refusal(lane);
    return false;
  }
  void on_commit(u32 lane, const trace::TraceInst& ti, Cycle now) override;
  u32 prf_ports_preempted() override { return fwd_.take_prf_preemptions(); }

  /// One high-frequency-domain cycle: the arbiter emits at most one valid
  /// packet through the allocator into the CDC. `status` is the (slightly
  /// stale, as in hardware) view of engine queue occupancy; `engines_blocked`
  /// reports whether the multicast channel was blocked by a full message
  /// queue on the most recent slow cycle (for stall attribution). Returns
  /// true when the arbiter held a valid packet but the full CDC refused it
  /// before anything issued this cycle: until the slow domain pops the CDC,
  /// every further tick_fast repeats exactly that.
  bool tick_fast(Cycle now_fast, const QueueStatus& status,
                 bool engines_blocked);

  /// Charge `n` >= 1 frozen fast cycles in bulk: cycles in which commit
  /// lane 0 is refused against a full CDC and tick_fast then blocks on it,
  /// with the multicast channel's blocked flag at `engines_blocked`
  /// throughout. Charges exactly what `n` refusals of lane 0 and `n` such
  /// tick_fast calls would: the first refusal reads the hint the previous
  /// tick_fast latched, the rest read `engines_blocked`.
  void charge_frozen_cycles(u64 n, bool engines_blocked);

  EventFilter& filter() { return filter_; }
  const EventFilter& filter() const { return filter_; }
  Allocator& allocator() { return allocator_; }
  const Allocator& allocator() const { return allocator_; }
  CdcFifo& cdc() { return cdc_; }
  const CdcFifo& cdc() const { return cdc_; }
  DataForwardingChannel& forwarding() { return fwd_; }
  const DataForwardingChannel& forwarding() const { return fwd_; }
  const FrontendConfig& config() const { return cfg_; }
  const FrontendStats& stats() const { return stats_; }

 private:
  StallCause classify_stall(u32 lane, bool engines_blocked) const;
  void note_refusal(u32 lane);

  FrontendConfig cfg_;
  DataForwardingChannel fwd_;
  EventFilter filter_;
  Allocator allocator_;
  CdcFifo cdc_;
  FrontendStats stats_;
  u64 seq_ = 0;
  bool engines_blocked_hint_ = false;
};

}  // namespace fg::core
