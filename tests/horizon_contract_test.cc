// The horizon contract, asserted per component.
//
// Every component the event-driven scheduler skips over exposes a
// next-event horizon; the contract is "no observable event strictly before
// next_event()". These property tests attack it directly: randomized
// component states (drawn from configurations inside the fuzzing
// subsystem's scenario envelope, so every config is one the fuzzer could
// hand the scheduler) are stepped with the exact one-cycle-at-a-time
// reference up to the claimed horizon, and anything observable happening
// before it is a failure. The whole-SoC closure — that the horizons
// *compose* into bit-identical runs — is covered by the scenario-snapshot
// diff at the end plus tests/skip_stress_test.cc and the fuzz corpus.
#include <gtest/gtest.h>

#include <vector>

#include "src/boom/core.h"
#include "src/common/rng.h"
#include "src/common/simctl.h"
#include "src/core/cdc.h"
#include "src/core/fabric.h"
#include "src/kernels/ha.h"
#include "src/kernels/kernel.h"
#include "src/mem/hierarchy.h"
#include "src/testing/scenario.h"
#include "src/testing/snapshot.h"
#include "src/trace/workload.h"
#include "src/ucore/ucore.h"
#include "src/ucore/umem.h"
#include "tests/skip_diff.h"

namespace fg {
namespace {

using soc::ExactMode;

/// Envelope for drawing component configurations: the PR 4 scenario
/// generator guarantees every draw is valid (never degenerate), so the
/// properties below range over exactly the states the fuzzer can produce.
fuzz::ScenarioEnvelope contract_envelope() {
  fuzz::ScenarioEnvelope env;
  env.min_insts = 2'000;
  env.max_insts = 6'000;
  return env;
}

core::Packet pk(u64 seq, u64 pc, u64 addr, u64 data) {
  core::Packet p;
  p.valid = true;
  p.seq = seq;
  p.pc = pc;
  p.addr = addr;
  p.data = data;
  return p;
}

// --- BoomCore -------------------------------------------------------------
//
// At a fixed point (tick returned inactive), next_event() claims the first
// cycle anything can change — for an in-flight DRAM/PTW miss that is the
// ROB head's completion cycle. Stepping the exact reference across the
// claimed window must retire nothing and keep the core inactive on every
// cycle strictly before the horizon.
TEST(HorizonContract, BoomCoreDeadUntilHorizon) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    trace::WorkloadGen gen(s.wl());
    mem::MemHierarchy mem(s.sc().mem);
    boom::BoomCore core(s.sc().core, mem, gen);

    u64 windows = 0;
    for (u64 step = 0; step < 200'000; ++step) {
      const bool active = core.tick(nullptr);
      if (active) continue;
      const Cycle h = core.next_event();
      if (h == kNoEvent) break;  // trace exhausted and pipeline drained
      ASSERT_GE(h, core.now()) << s.name;
      if (h <= core.now() + 1) continue;  // no skippable window
      ++windows;
      const u64 committed = core.stats().committed;
      const u64 mispredicts = core.stats().mispredicts;
      while (core.now() < h) {
        EXPECT_FALSE(core.tick(nullptr))
            << s.name << ": observable activity at cycle " << core.now() - 1
            << ", strictly before claimed horizon " << h;
        EXPECT_EQ(core.stats().committed, committed) << s.name;
      }
      EXPECT_EQ(core.stats().mispredicts, mispredicts) << s.name;
    }
    // The property must have had something to bite on (stall windows exist
    // in every drawn workload — if not, the test fixture has rotted).
    EXPECT_GT(windows, 0u) << s.name;
  }
}

// A refused-head fixed point: the sink refuses lane 0, nothing else in the
// core moves, and next_event() claims the dispatch stage's horizon alone.
// While the sink keeps refusing, stepping to that horizon must change only
// stall counters — and exactly the ones skip_to charges.
TEST(HorizonContract, BoomCoreRefusedHeadChangesOnlyStallCounters) {
  // Accepts commits until told to refuse every lane.
  struct GateSink final : boom::CommitSink {
    bool refuse = false;
    bool can_commit(u32, const trace::TraceInst&) override { return !refuse; }
    void on_commit(u32, const trace::TraceInst&, Cycle) override {}
    u32 prf_ports_preempted() override { return 0; }
  };
  auto same = [](const boom::CoreStats& a, const boom::CoreStats& b) {
    return a.cycles == b.cycles && a.committed == b.committed &&
           a.commit_stall_fireguard == b.commit_stall_fireguard &&
           a.commit_stall_empty == b.commit_stall_empty &&
           a.dispatch_stall_rob == b.dispatch_stall_rob &&
           a.dispatch_stall_iq == b.dispatch_stall_iq &&
           a.dispatch_stall_lsq == b.dispatch_stall_lsq &&
           a.dispatch_stall_pregs == b.dispatch_stall_pregs &&
           a.mispredicts == b.mispredicts &&
           a.prf_contention_delays == b.prf_contention_delays &&
           a.stlf_forwards == b.stlf_forwards;
  };
  for (u64 seed = 1; seed <= 6; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    // Two identical cores: `stepped` ticks through every refused cycle,
    // `skipped` jumps with skip_to; they must stay indistinguishable.
    trace::WorkloadGen gen_a(s.wl());
    trace::WorkloadGen gen_b(s.wl());
    mem::MemHierarchy mem_a(s.sc().mem);
    mem::MemHierarchy mem_b(s.sc().mem);
    boom::BoomCore stepped(s.sc().core, mem_a, gen_a);
    boom::BoomCore skipped(s.sc().core, mem_b, gen_b);
    GateSink sink;
    Rng rng(seed * 131 + 7);

    u64 windows = 0;
    for (u32 round = 0; round < 400 && !stepped.done(); ++round) {
      // Accept for a while, then refuse until the fixed point.
      sink.refuse = false;
      for (u64 k = rng.range(1, 60); k != 0 && !stepped.done(); --k) {
        stepped.tick(&sink);
        skipped.tick(&sink);
      }
      sink.refuse = true;
      bool active = true;
      for (u32 k = 0; k < 64 && active; ++k) {
        active = stepped.tick(&sink);
        ASSERT_EQ(skipped.tick(&sink), active) << s.name;
      }
      if (active || !stepped.head_refused()) continue;
      ASSERT_TRUE(skipped.head_refused()) << s.name;
      const Cycle h = stepped.next_event();
      ASSERT_EQ(skipped.next_event(), h) << s.name;
      ASSERT_GT(h, stepped.now()) << s.name;
      // kNoEvent: only the sink can release the core; step a stretch.
      const Cycle target =
          std::min<Cycle>(h, stepped.now() + rng.range(1, 200));
      const boom::CoreStats before = stepped.stats();
      const Cycle from = stepped.now();
      while (stepped.now() < target) {
        EXPECT_FALSE(stepped.tick(&sink))
            << s.name << ": activity at cycle " << stepped.now() - 1
            << ", before the refused head's horizon " << h;
      }
      skipped.skip_to(target);
      ++windows;
      const boom::CoreStats& after = stepped.stats();
      EXPECT_EQ(after.committed, before.committed) << s.name;
      EXPECT_EQ(after.mispredicts, before.mispredicts) << s.name;
      EXPECT_EQ(after.commit_stall_empty, before.commit_stall_empty) << s.name;
      // One lane-0 refusal per cycle, nothing else on the commit side.
      EXPECT_EQ(after.commit_stall_fireguard - before.commit_stall_fireguard,
                target - from)
          << s.name;
      ASSERT_TRUE(same(stepped.stats(), skipped.stats()))
          << s.name << ": skip_to charged differently from stepping";
      EXPECT_TRUE(stepped.head_refused()) << s.name;
      EXPECT_EQ(stepped.next_event(), h) << s.name;
    }
    EXPECT_GT(windows, 0u) << s.name;
  }
}

// --- CdcFifo --------------------------------------------------------------
//
// next_ready_slow() is the first slow cycle the head entry's handshake has
// settled; nothing is poppable strictly before it, and the head IS poppable
// exactly at it. ready_count() must agree with per-entry can_pop semantics
// (that agreement is what licenses the burst pop in Soc::slow_tick).
TEST(HorizonContract, CdcFifoNothingPoppableBeforeReady) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    const u32 depth = s.sc().frontend.cdc_depth;
    const u32 ratio = s.sc().frontend.freq_ratio;
    core::CdcFifo cdc(depth, ratio);
    Rng rng(seed * 977 + 11);

    Cycle fast = 0;
    for (u32 round = 0; round < 64; ++round) {
      fast += rng.range(1, 3 * ratio);
      if (cdc.can_push() && rng.chance(0.7)) {
        cdc.push(pk(round, 0x1000 + round, round * 8, round), fast);
      }
      const Cycle h = cdc.next_ready_slow();
      if (h == kNoEvent) {
        EXPECT_TRUE(cdc.empty());
        continue;
      }
      // Strictly before the horizon: not poppable at any earlier cycle.
      for (Cycle s_cyc = h >= 4 ? h - 4 : 0; s_cyc < h; ++s_cyc) {
        EXPECT_FALSE(cdc.can_pop(s_cyc)) << "seed " << seed;
        EXPECT_EQ(cdc.ready_count(s_cyc, depth), 0u) << "seed " << seed;
      }
      // At the horizon: the head has settled.
      EXPECT_TRUE(cdc.can_pop(h)) << "seed " << seed;
      EXPECT_GE(cdc.ready_count(h, depth), 1u) << "seed " << seed;
      // ready_count == k licenses draining k packets without re-checking
      // the handshake: each of the k pops must be front-poppable.
      if (rng.chance(0.5)) {
        const u32 k = cdc.ready_count(h, rng.range(1, depth));
        for (u32 i = 0; i < k; ++i) {
          ASSERT_TRUE(cdc.can_pop(h)) << "seed " << seed << " pop " << i;
          cdc.pop();
        }
      }
    }
  }
}

// --- UCore ----------------------------------------------------------------
//
// A stalled µcore (mid multi-cycle instruction) claims stall_until() as its
// horizon: every tick strictly before it must be a pure stall-counter
// increment — zero instructions executed, no packets popped or pushed, no
// detections, output queue untouched. An idle µcore (kNoEvent horizon) may
// execute spin-loop instructions when ticked, but nothing observable may
// change — that unobservability is exactly what licenses freezing the spin.
struct UCoreObservables {
  u64 popped, pushes, detections;
  size_t input, output_empty;

  explicit UCoreObservables(const ucore::UCore& c)
      : popped(c.stats().packets_popped),
        pushes(c.stats().pushes),
        detections(c.stats().detections),
        input(c.input_size()),
        output_empty(c.output_empty() ? 1u : 0u) {}
  bool operator==(const UCoreObservables&) const = default;
};

TEST(HorizonContract, UCoreStallWindowIsPureStallAccounting) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    ucore::USharedMemory kmem;
    ucore::UCore core(s.sc().ucore, 0, &kmem, nullptr);
    core.load_program(
        kernels::build_pmc(kernels::ProgModel::kHybrid, s.sc().kparams));
    Rng rng(seed * 131 + 7);

    Cycle now = 0;
    u64 stall_windows = 0;
    for (u32 round = 0; round < 4'000 && !core.halted(); ++round) {
      if (!core.input_full() && rng.chance(0.3)) {
        core.push_input(pk(round, 0x2000 + round * 4, round * 8, round));
      }
      const Cycle h = core.next_event(now);
      if (h == kNoEvent) {
        // Idle: ticking executes at most unobservable spin iterations.
        const UCoreObservables before(core);
        for (u32 k = 0; k < 16; ++k) core.tick(now++);
        EXPECT_TRUE(UCoreObservables(core) == before) << "seed " << seed;
        if (core.input_full()) break;
        core.push_input(pk(9000 + round, 0x3000, 8, 1));  // wake it
        continue;
      }
      ASSERT_GE(h, now) << "seed " << seed;
      if (h == now) {  // executable this cycle: just advance
        core.tick(now++);
        continue;
      }
      ++stall_windows;
      const UCoreObservables before(core);
      const u64 insts = core.stats().instructions;
      const u64 stalls = core.stats().stall_cycles;
      const u64 window = h - now;
      while (now < h) core.tick(now++);
      EXPECT_EQ(core.stats().instructions, insts) << "seed " << seed;
      EXPECT_EQ(core.stats().stall_cycles, stalls + window) << "seed " << seed;
      EXPECT_TRUE(UCoreObservables(core) == before) << "seed " << seed;
    }
    EXPECT_GT(stall_windows, 0u) << "seed " << seed;
  }
}

// --- HardwareAccelerator --------------------------------------------------
//
// An HA consumes one packet per slow cycle: its horizon is `now` while the
// queue is non-empty and kNoEvent once drained — at which point tick must
// be a structural no-op (the refill is the CDC's event, not the HA's).
TEST(HorizonContract, HardwareAcceleratorIdleTickIsNoOp) {
  for (u64 seed = 1; seed <= 16; ++seed) {
    kernels::PmcHa ha(0, /*text_lo=*/0x1000, /*text_hi=*/0x100000);
    Rng rng(seed * 53 + 29);
    Cycle now = 0;
    for (u32 round = 0; round < 200; ++round) {
      if (!ha.input_full() && rng.chance(0.5)) {
        ha.push_input(pk(round, 0x1000 + round * 4, 0, round));
      }
      if (ha.idle()) {
        EXPECT_EQ(ha.next_event(now), kNoEvent) << "seed " << seed;
        const u64 processed = ha.packets_processed();
        const size_t detections = ha.detections().size();
        for (u32 k = 0; k < 8; ++k) ha.tick(now++);
        EXPECT_EQ(ha.packets_processed(), processed) << "seed " << seed;
        EXPECT_EQ(ha.detections().size(), detections) << "seed " << seed;
      } else {
        // Non-empty queue: progress is claimed for THIS cycle, and one tick
        // consumes exactly one packet.
        EXPECT_EQ(ha.next_event(now), now) << "seed " << seed;
        const u64 processed = ha.packets_processed();
        ha.tick(now++);
        EXPECT_EQ(ha.packets_processed(), processed + 1) << "seed " << seed;
      }
    }
  }
}

// --- NocMesh --------------------------------------------------------------
//
// next_arrival() is the earliest delivery cycle over all in-flight
// messages: no engine can receive anything strictly before it, and at the
// horizon at least one engine can. (This is the mesh share of the SoC's
// memoized slow-rest horizon.)
TEST(HorizonContract, NocMeshNothingDeliverableBeforeArrival) {
  for (u64 seed = 1; seed <= 16; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    Rng rng(seed * 389 + 3);
    const u32 n = static_cast<u32>(rng.range(1, 12));
    core::NocMesh mesh(n, s.sc().noc_hop_latency);

    Cycle now = 0;
    for (u32 round = 0; round < 32; ++round) {
      now += rng.range(0, 3);
      const u32 src = static_cast<u32>(rng.below(n));
      const u32 dst = static_cast<u32>(rng.below(n));
      mesh.send(src, dst, (seed << 16) | round, now);
    }
    while (mesh.pending() > 0) {
      const Cycle h = mesh.next_arrival();
      ASSERT_NE(h, kNoEvent);
      for (Cycle c = h >= 3 ? h - 3 : 0; c < h; ++c) {
        for (u32 e = 0; e < n; ++e) {
          EXPECT_FALSE(mesh.deliver(e, c).has_value())
              << "seed " << seed << ": delivery at " << c
              << " strictly before claimed arrival " << h;
        }
      }
      bool delivered = false;
      for (u32 e = 0; e < n; ++e) {
        while (mesh.deliver(e, h).has_value()) delivered = true;
      }
      EXPECT_TRUE(delivered) << "seed " << seed;
    }
    EXPECT_EQ(mesh.next_arrival(), kNoEvent);
  }
}

// --- Whole-SoC closure ----------------------------------------------------
//
// The component horizons must *compose*: scenario-envelope draws run under
// the event scheduler and the FG_CYCLE_EXACT reference must produce
// bit-identical StatSnapshots (the same diff the fuzz driver and golden
// corpus enforce, here as a fast in-suite guard).
TEST(HorizonContract, ScenarioSnapshotsMatchExactReference) {
  ExactMode guard(false);
  for (u64 seed = 201; seed <= 206; ++seed) {
    const fuzz::Scenario s = fuzz::scenario_from_seed(seed, contract_envelope());
    const api::StatSnapshot event =
        fuzz::run_scenario_snapshot_in_mode(s, /*exact=*/false);
    const api::StatSnapshot exact =
        fuzz::run_scenario_snapshot_in_mode(s, /*exact=*/true);
    EXPECT_TRUE(api::snapshots_equal(exact, event))
        << fuzz::scenario_summary(s) << "\n"
        << api::snapshot_diff(exact, event, "exact", "event");
  }
}

}  // namespace
}  // namespace fg
