// Rocket-class analysis-engine model (Section III-D, Figure 6).
//
// A 5-stage in-order µcore at 1.6 GHz with 4KB 2-way I/D caches, a small
// µTLB, and the message queues of Table I reachable through the ISAX
// interface. Two ISAX integrations are modelled:
//
//  * `ma_stage = true` (the paper's contribution): queue instructions execute
//    in the Memory-Access stage, multiplexed with the load-store unit; with
//    the forwarding network of Figure 6 only an *immediately* dependent
//    consumer pays one bubble.
//  * `ma_stage = false` (Rocket's stock post-commit ISAX port): every queue
//    instruction blocks the core for >= 3 cycles, growing to 13 under data
//    hazards and back-to-back ISAX contention — the behaviour that motivated
//    the redesign.
//
// Execution is functional: registers and the kernel's shared memory hold
// real values, so guardian kernels genuinely compute their verdicts.
#pragma once

#include <vector>

#include "src/common/ring_queue.h"
#include "src/common/simctl.h"
#include "src/core/packet.h"
#include "src/mem/cache.h"
#include "src/mem/tlb.h"
#include "src/ucore/umem.h"
#include "src/ucore/uprog.h"

namespace fg::ucore {

struct UCoreConfig {
  u32 msgq_depth = 32;  // Table II: 32-entry message queues
  bool isax_ma_stage = true;
  u32 postcommit_base = 3;        // minimum block per ISAX op (stock Rocket)
  u32 postcommit_contention = 2;  // extra when ISAX ops are back to back
  u32 postcommit_hazard = 8;      // extra when the next inst uses the result
  mem::CacheConfig dcache{4 * 1024, 2, 64, 1, 2};
  mem::CacheConfig icache{4 * 1024, 2, 64, 1, 1};
  mem::TlbConfig utlb{32, 4096, 30};
  u32 l2_latency = 3;   // µcycles for a d-cache miss that hits the shared L2
  u32 mem_latency = 16;  // additional µcycles when the shared L2 misses
};

/// A violation reported by a guardian kernel via the `detect` instruction.
struct Detection {
  u32 engine = 0;
  u64 payload = 0;  // by convention the packet's debug-data word (attack id)
  u64 aux = 0;      // kernel-specific detail (e.g. faulting address)
  Cycle cycle_slow = 0;
};

struct UCoreStats {
  u64 instructions = 0;
  u64 busy_cycles = 0;
  u64 stall_cycles = 0;
  u64 packets_popped = 0;
  u64 pushes = 0;
  u64 detections = 0;
  u64 hazard_bubbles = 0;
};

class UCore {
 public:
  UCore(const UCoreConfig& cfg, u32 engine_id, USharedMemory* memory,
        mem::Cache* shared_l2);

  void load_program(const UProgram& prog);
  void set_reg(u8 r, u64 v);
  u64 reg(u8 r) const { return regs_[r & 31]; }

  // --- message queues (fed by the multicast channel) ---
  bool input_full() const { return input_.full(); }
  size_t input_free() const { return input_.free_slots(); }
  size_t input_size() const { return input_.size(); }
  void push_input(const core::Packet& p);

  // --- output queue (drained into the fabric routing channel) ---
  bool output_empty() const { return output_.empty(); }
  u64 pop_output();

  // --- fabric routing channel delivery ---
  void push_noc(u64 payload) { noc_inbox_.push_back(payload); }
  bool noc_inbox_empty() const { return noc_head_ == noc_inbox_.size(); }

  /// Execute (at most) one instruction at slow-domain cycle `now`.
  void tick(Cycle now_slow);

  bool halted() const { return halted_; }

  /// True when the engine has nothing to do: input queue empty and the
  /// kernel loop is spinning on an empty-count (or empty NoC receive).
  bool quiescent() const { return input_.empty() && spinning_; }

  /// Stronger than `quiescent`: the core can make no observable progress —
  /// the kernel loop is spinning on queues that are all empty, so packets,
  /// verdicts and NoC traffic are unaffected by whether the spin itself is
  /// simulated. Spinning alone is not enough: a NoC payload wakes the loop
  /// without clearing `spinning_`, and a non-empty output queue still owes
  /// the fabric work — so the SoC may skip `tick` only under this
  /// predicate. Skipping freezes the spin loop in place (spin-loop
  /// instruction/stall stats stop accumulating, and the wake-up lands at a
  /// fixed point in the loop instead of a phase that depends on how long
  /// the engine spun — a wake-time shift of at most one spin iteration).
  bool idle() const {
    return (halted_ || (spinning_ && input_.empty())) && noc_inbox_empty() &&
           output_.empty();
  }

  /// First slow cycle at or after `now` at which `tick` can change anything
  /// beyond the per-cycle stall counter. kNoEvent: never (idle spin loop
  /// waiting for a packet, or halted — deliveries that change that are the
  /// CDC's / NoC's events, not this core's). A stalled core wakes exactly at
  /// `stall_until_`; an executable core must be ticked every cycle.
  Cycle next_event(Cycle now) const {
    if (halted_ || idle()) return kNoEvent;
    return now < stall_until_ ? stall_until_ : now;
  }

  /// End of the current multi-cycle instruction (tick is a pure stall
  /// counter increment strictly before this cycle).
  Cycle stall_until() const { return stall_until_; }

  /// Stall fast-forward: charge the `n` stall cycles of slow ticks this
  /// engine provably spent stalled but was never ticked for, in one call —
  /// the event-driven scheduler's replacement for n per-cycle early-return
  /// ticks. Callers must filter on `!idle() && !halted()`: an idle engine's
  /// spin loop is frozen (no stall accrues) and a halted one accrues
  /// nothing — charging either would diverge from the stepped reference.
  void charge_skipped_stall(u64 n);

  const std::vector<Detection>& detections() const { return detections_; }
  void clear_detections() { detections_.clear(); }

  const UCoreStats& stats() const { return stats_; }
  const mem::Cache& dcache() const { return dcache_; }
  const mem::Tlb& utlb() const { return utlb_; }
  u32 engine_id() const { return engine_id_; }

 private:
  u32 data_access(u64 addr, Cycle now);
  u64 queue_word(const core::Packet& p, i64 bit_offset) const;

  UCoreConfig cfg_;
  u32 engine_id_;
  USharedMemory* mem_;
  mem::Cache* shared_l2_;

  UProgram prog_;
  std::array<u64, 32> regs_{};
  u32 pc_ = 0;
  bool halted_ = false;

  RingQueue<core::Packet> input_;
  RingQueue<u64> output_;
  // NoC inbox as a vector + consumed-prefix cursor: payloads are appended by
  // the fabric and consumed FIFO by kNocRecv; the cursor makes the pop O(1)
  // (no erase-from-front) and the storage is reclaimed when it drains.
  std::vector<u64> noc_inbox_;
  size_t noc_head_ = 0;
  core::Packet recent_{};  // most recently popped element (q.recent)

  mem::Cache dcache_;
  mem::Cache icache_;
  mem::Tlb utlb_;

  Cycle stall_until_ = 0;
  bool spinning_ = false;
  // FG_INVARIANT witness (maintained in Debug builds only): the slow cycle
  // of the previous tick, so the scheduler can be caught handing this core
  // a non-monotone `now` after a skip.
  Cycle last_tick_now_ = 0;

  // Hazard tracking: destination of the previous instruction, if it was a
  // load or an ISAX queue op (the two result-late producers).
  u8 prev_late_rd_ = 0;
  bool prev_late_valid_ = false;
  bool prev_was_isax_ = false;
  u32 isax_cooldown_ = 0;  // post-commit mode back-to-back contention window

  UCoreStats stats_;
  std::vector<Detection> detections_;
};

}  // namespace fg::ucore
