#include "src/soc/soc.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/common/simctl.h"

namespace fg::soc {

namespace {
/// Quiescent post-completion iterations before run() exits (NoC tokens and
/// pipeline residue settle well inside this).
constexpr u64 kGraceLimit = 512;
/// Post-completion drain backstop: a misconfigured kernel (e.g. a shadow
/// stack scheduled without block mode) can leave queues that never empty.
constexpr Cycle kDrainBackstop = 2'000'000;
}  // namespace

bool Soc::Engine::input_full() const {
  return ucore ? ucore->input_full() : ha->input_full();
}
size_t Soc::Engine::input_free() const {
  return ucore ? ucore->input_free() : ha->input_free();
}
void Soc::Engine::push_input(const core::Packet& p) {
  if (ucore) {
    ucore->push_input(p);
  } else {
    ha->push_input(p);
  }
}
void Soc::Engine::tick(Cycle now_slow) {
  if (ucore) {
    ucore->tick(now_slow);
  } else {
    ha->tick(now_slow);
  }
}
bool Soc::Engine::quiescent() const {
  return ucore ? ucore->quiescent() : ha->quiescent();
}
bool Soc::Engine::idle() const {
  return ucore ? ucore->idle() : ha->idle();
}
Cycle Soc::Engine::next_event(Cycle now_slow) const {
  if (ucore) {
    // A pending output word is drained by the fabric every slow tick even
    // while the core itself is stalled or halted.
    if (!ucore->output_empty()) return now_slow;
    return ucore->next_event(now_slow);
  }
  return ha->next_event(now_slow);
}
const std::vector<ucore::Detection>& Soc::Engine::detections() const {
  return ucore ? ucore->detections() : ha->detections();
}

Soc::Soc(const SocConfig& cfg, trace::TraceSource& src)
    : cfg_(cfg), mem_(cfg.mem) {
  core_ = std::make_unique<boom::BoomCore>(cfg_.core, mem_, src);
  core_->set_warmup_mark(cfg_.warmup_insts);
  frontend_ = std::make_unique<core::Frontend>(cfg_.frontend);
  engine_l2_ = std::make_unique<mem::Cache>(cfg_.engine_l2, "engineL2");
  for (const auto& [lo, hi] : cfg_.warm_regions) {
    mem_.warm_region(lo, hi);
    // The analysis engines' hot state is the shadow of the program's data.
    const u64 slo = cfg_.kparams.shadow_base + (lo >> 3);
    const u64 shi = cfg_.kparams.shadow_base + (hi >> 3) + 64;
    engine_l2_->warm_range(slo, shi);
  }
  mem_.reset_stats();
  engine_l2_->reset_stats();
  build_engines(src);
  cdc_pop_budget_ = cfg_.frontend.freq_ratio * cfg_.frontend.mapper_width;
}

void Soc::build_engines(trace::TraceSource&) {
  u32 next_engine = 0;
  u32 next_se = 0;
  u8 next_gid = 0;
  for (u32 d = 0; d < cfg_.kernels.size(); ++d) {
    KernelDeployment& dep = cfg_.kernels[d];
    if (!dep.policy_overridden) {
      dep.policy = dep.kind == kernels::KernelKind::kShadowStack
                       ? core::SchedPolicy::kBlock
                       : core::SchedPolicy::kRoundRobin;
    }
    const bool split = kernels::kernel_splits_events(dep.kind) && !dep.use_ha;
    const u8 gid_checks = next_gid++;
    const u8 gid_events = split ? next_gid++ : gid_checks;
    kernels::program_filter(frontend_->filter().table(), dep.kind, gid_checks,
                            gid_events);

    const u32 n = dep.use_ha ? 1 : dep.n_engines;
    FG_CHECK(n >= 1);
    FG_CHECK(next_engine + n <= core::kMaxEngines);
    u16 ae_mask = 0;
    kernel_mems_.push_back(std::make_unique<ucore::USharedMemory>());
    ucore::USharedMemory* kmem = kernel_mems_.back().get();

    for (u32 i = 0; i < n; ++i) {
      const u32 id = next_engine + i;
      ae_mask |= static_cast<u16>(1u << id);
      Engine e;
      e.deployment = d;
      if (dep.use_ha) {
        switch (dep.kind) {
          case kernels::KernelKind::kPmc:
            e.ha = std::make_unique<kernels::PmcHa>(id, cfg_.kparams.text_lo,
                                                    cfg_.kparams.text_hi);
            break;
          case kernels::KernelKind::kShadowStack:
            e.ha = std::make_unique<kernels::ShadowStackHa>(id);
            break;
          default:
            FG_CHECK(false && "HA available only for PMC and shadow stack");
        }
      } else {
        e.ucore = std::make_unique<ucore::UCore>(cfg_.ucore, id, kmem,
                                                 engine_l2_.get());
        e.ucore->load_program(kernels::build_kernel_program(
            dep.kind, dep.model, cfg_.kparams, i, n));
      }
      engines_.push_back(std::move(e));
      ucores_.push_back(engines_.back().ucore.get());
    }
    // Checks: all engines of the group under the deployment's policy.
    if (split) shadow_mems_.push_back(kmem);
    frontend_->allocator().configure_se(next_se++, ae_mask, dep.policy,
                                        gid_checks);
    if (split) {
      // Allocator events: pinned to the group's first engine.
      frontend_->allocator().configure_se(
          next_se++, static_cast<u16>(1u << next_engine),
          core::SchedPolicy::kFixed, gid_events);
    }
    next_engine += n;
  }
  noc_ = std::make_unique<core::NocMesh>(std::max<u32>(1, next_engine),
                                         cfg_.noc_hop_latency);
}

void Soc::apply_heap_event(const trace::TraceInst& ti) {
  // Authoritative shadow maintenance in commit order. The event engine's
  // µcore program performs the identical loops against the timing mirror,
  // so the *cost* is still paid in the analysis backend; doing the
  // functional update here removes the engine-lag races that would
  // otherwise make check verdicts depend on cross-engine process skew.
  const u64 shadow_lo = ti.sem_addr >> 3;
  const u64 shadow_len = ti.sem_size >> 3;
  for (ucore::USharedMemory* m : shadow_mems_) {
    const u64 base = cfg_.kparams.shadow_base;
    if (ti.sem == trace::SemEvent::kAlloc) {
      for (u64 i = 0; i < shadow_len; i += 8) m->store(base + shadow_lo + i, 8, 0);
      // Trailing 64-byte redzone = one poisoned shadow word.
      m->store(base + shadow_lo + shadow_len, 8, 0xfafafafafafafafaull);
    } else {
      for (u64 i = 0; i < shadow_len; i += 8) {
        m->store(base + shadow_lo + i, 8, 0xfdfdfdfdfdfdfdfdull);
      }
    }
  }
}

void Soc::on_commit(u32 lane, const trace::TraceInst& ti, Cycle now) {
  if (ti.attack_id != 0) {
    attack_commit_.emplace(ti.attack_id, now);
    const u64 addr = isa::is_mem(ti.cls) ? ti.mem_addr : ti.target;
    attack_by_addr_[addr].push_back(ti.attack_id);
  }
  if (ti.sem != trace::SemEvent::kNone) apply_heap_event(ti);
  frontend_->on_commit(lane, ti, now);
}

bool Soc::engine_queue_full(u32 engine) const {
  FG_CHECK(engine < engines_.size());
  return engines_[engine].input_full();
}

size_t Soc::engine_queue_free(u32 engine) const {
  FG_CHECK(engine < engines_.size());
  return engines_[engine].input_free();
}

bool Soc::can_deliver(const core::Packet& p) const {
  for (u32 e = 0; e < engines_.size(); ++e) {
    if ((p.ae_bitmap & (1u << e)) && engines_[e].input_full()) return false;
  }
  if (p.marker_from != 0xff && p.marker_from < engines_.size() &&
      engines_[p.marker_from].input_full()) {
    return false;
  }
  return true;
}

void Soc::deliver(const core::Packet& p) {
  // The handoff marker is delivered first so the old engine's queue carries
  // it in stream order (it precedes every packet routed to the new target).
  if (p.marker_from != 0xff && p.marker_from < engines_.size()) {
    core::Packet marker;
    marker.valid = true;
    marker.gid_bitmap = p.gid_bitmap;
    marker.inst = kernels::kSsMarkerInst;
    marker.addr = p.marker_to;
    marker.seq = p.seq;
    marker.commit_cycle = p.commit_cycle;
    engines_[p.marker_from].push_input(marker);
  }
  for (u32 e = 0; e < engines_.size(); ++e) {
    if (p.ae_bitmap & (1u << e)) engines_[e].push_input(p);
  }
}

void Soc::slow_tick(Cycle now_slow) {
  // Any slow tick may move engine / mesh state: retire the memoized rest
  // horizon (recomputed lazily at the next skip evaluation).
  ++slow_epoch_;
  core::CdcFifo& cdc = frontend_->cdc();
  const u32 n = static_cast<u32>(engines_.size());

  // Fast path: with no poppable CDC entry, no NoC message in flight and
  // every engine idle (spin loop on empty queues, nothing buffered
  // anywhere), the slow domain can make no observable progress this cycle —
  // only the engines' spin loops would advance (see UCore::idle for what
  // freezing them changes). This is the common state whenever the main core
  // runs ahead of the event stream, and it is what lets light kernels
  // simulate at near-baseline speed. The gate is can_pop (not empty): an
  // unsettled head is untouchable this cycle anyway.
  if (!cdc.can_pop(now_slow) && noc_->pending() == 0) {
    bool all_idle = true;
    for (const Engine& e : engines_) {
      if (!e.idle()) {
        all_idle = false;
        break;
      }
    }
    if (all_idle) {
      engines_blocked_ = false;
      return;
    }
  }

  // 1) Multicast channel: the CDC's slow-domain read port is freq_ratio
  //    packets wide per mapper lane, so the crossing sustains the mapper's
  //    issue bandwidth end to end. Each packet is delivered atomically to
  //    every interested engine. The handshake is checked once for the whole
  //    burst (settle times are monotone in push order), so one slow-domain
  //    wakeup drains every packet that settled while the domain slept.
  engines_blocked_ = false;
  for (u32 i = cdc.ready_count(now_slow, cdc_pop_budget_); i != 0; --i) {
    const core::Packet& p = cdc.front();
    if (!can_deliver(p)) {
      engines_blocked_ = true;
      break;
    }
    deliver(p);
    cdc.pop();
  }

  // 2) Analysis engines execute. An idle engine cannot make observable
  //    progress (UCore::idle / HardwareAccelerator::idle), so skipping its
  //    tick only freezes the spin loop's own bookkeeping.
  for (Engine& e : engines_) {
    if (!e.idle()) e.tick(now_slow);
  }

  // 3) Output queues drain into the fabric routing channel (one per engine
  //    per cycle). Payload format: {dst[63:56], value[55:0]}.
  for (u32 i = 0; i < n; ++i) {
    ucore::UCore* uc = ucores_[i];
    if (uc == nullptr || uc->output_empty()) continue;
    const u64 payload = uc->pop_output();
    const u32 dst = static_cast<u32>(payload >> 56);
    const u64 value = payload & ((u64{1} << 56) - 1);
    if (dst < n) noc_->send(i, dst, value, now_slow);
  }

  // 4) Mesh deliveries.
  if (noc_->pending() != 0) {
    for (u32 i = 0; i < n; ++i) {
      ucore::UCore* uc = ucores_[i];
      if (uc == nullptr) continue;
      while (auto m = noc_->deliver(i, now_slow)) uc->push_noc(m->payload);
    }
  }
}

bool Soc::engines_drained() const {
  for (const Engine& e : engines_) {
    if (!e.quiescent()) return false;
    if (e.ucore && !e.ucore->output_empty()) return false;
  }
  return true;
}

Cycle Soc::slow_rest_horizon_fresh(Cycle now_slow) const {
  Cycle h = kNoEvent;
  // Mesh: the earliest in-flight arrival.
  if (noc_->pending() != 0) {
    const Cycle arrival = noc_->next_arrival();
    if (arrival != kNoEvent) h = std::min(h, arrival);
  }
  // Engines: wake-from-stall / executable-now / output-drain horizons.
  for (const Engine& e : engines_) {
    if (h <= now_slow) break;  // cannot get earlier once clamped to now
    const Cycle ee = e.next_event(now_slow);
    if (ee != kNoEvent) h = std::min(h, ee);
  }
  return h;
}

Cycle Soc::slow_rest_horizon(Cycle now_slow) const {
  if (slow_rest_epoch_ != slow_epoch_) {
    slow_rest_cache_ = slow_rest_horizon_fresh(now_slow);
    slow_rest_epoch_ = slow_epoch_;
  }
  const Cycle h = slow_rest_cache_;
#if FG_INVARIANTS_COMPILED
  // The epoch-keyed memo must never go stale: engine / mesh state mutating
  // anywhere but slow_tick would make the skip paths jump over a live event.
  // (Clamped comparison: a cache computed at an earlier `now_slow` may hold
  // that older cycle for an executable-now engine; both sides mean "now".)
  const Cycle fresh = slow_rest_horizon_fresh(now_slow);
  FG_INVARIANT(
      (h == kNoEvent ? kNoEvent : std::max(h, now_slow)) ==
          (fresh == kNoEvent ? kNoEvent : std::max(fresh, now_slow)),
      "soc.slow_horizon_epoch");
#endif
  return h == kNoEvent ? kNoEvent : std::max(h, now_slow);
}

Cycle Soc::slow_next_event(Cycle now_slow) const {
  // CDC first: the head entry's handshake settles at a known slow cycle;
  // pops are in order, so it bounds the whole FIFO. (Delivery may then still
  // block on a full message queue — but a full queue means a non-idle
  // engine, whose own horizon already forces stepping.) Read fresh: a
  // fast-domain push is the one event the slow-tick epoch cannot see, and it
  // is O(1) here. A head that can pop now answers without rebuilding the
  // memoized engine horizon, which a real tick just retired.
  const Cycle cdc_ready = frontend_->cdc().next_ready_slow();
  if (cdc_ready <= now_slow) return now_slow;
  return std::min(slow_rest_horizon(now_slow), cdc_ready);
}

void Soc::jump_to(Cycle target, SkipBound bound, bool frozen, u32& until_slow,
                  Cycle& slow_now) {
  // One walker for every skip window. The fast domain is dead on
  // [fast_now_, target): nothing in it moves but per-cycle counters, so the
  // only work is the slow boundaries that fall inside the window. Before the
  // slow horizon a boundary is a structural no-op: a no-op multicast pass
  // leaves engines_blocked_ false, and only stalled (non-idle, non-halted)
  // µcores owe their per-tick stall accounting. Engine state is frozen
  // between real slow ticks and the fast domain pushes nothing, so one
  // horizon evaluation covers the whole stretch up to the next real tick.
  //
  // Frozen (back-pressure) windows also charge each stretch of refused fast
  // cycles with the engines-blocked hint it would have read, and end right
  // after the first real tick that leaves the CDC with room: the cycle after
  // it may push, so it is stepped.
  const u32 ratio = std::max<u32>(1, cfg_.frontend.freq_ratio);
  const core::CdcFifo& cdc = frontend_->cdc();
  const Cycle start = fast_now_;
  Cycle end = target;
  Cycle boundary = start + (until_slow - 1);  // iteration of the next slow tick
  Cycle charged = start;  // frozen: first fast cycle not yet charged
  while (boundary < end) {
    if (frozen) {
      // A refusal reads the hint one cycle stale, so the cycles up to and
      // including this boundary see the value from before its tick.
      frontend_->charge_frozen_cycles(boundary + 1 - charged, engines_blocked_);
      charged = boundary + 1;
    }
    const Cycle slow_ev = slow_next_event(slow_now);
    if (slow_ev > slow_now) {
      const u64 remaining = 1 + (end - 1 - boundary) / ratio;
      const u64 nb = std::min<u64>(remaining, slow_ev - slow_now);
      for (ucore::UCore* uc : ucores_) {
        if (uc != nullptr && !uc->idle() && !uc->halted()) {
          uc->charge_skipped_stall(nb);
        }
      }
      engines_blocked_ = false;
      slow_now += nb;
      boundary += nb * ratio;
      sched_.slow_ticks_skipped += nb;
    } else {
      slow_tick(slow_now++);
      ++sched_.slow_ticks_run;
      if (frozen && !cdc.full()) {
        end = boundary + 1;
        bound = SkipBound::kSlow;
      }
      boundary += ratio;
    }
  }
  if (frozen && charged < end) {
    frontend_->charge_frozen_cycles(end - charged, engines_blocked_);
  }
  // A finished core is never ticked again; its clock stays where it stopped.
  if (!core_->done()) core_->skip_to(end);
  until_slow = static_cast<u32>(boundary - end + 1);
  fast_now_ = end;
  sched_.note_skip(end - start);
  switch (bound) {
    case SkipBound::kCore: ++sched_.bound_core; break;
    case SkipBound::kSlow: ++sched_.bound_slow; break;
    case SkipBound::kCap: ++sched_.bound_cap; break;
  }
}

void Soc::run() {
  const u32 ratio = std::max<u32>(1, cfg_.frontend.freq_ratio);
  const bool exact = cycle_exact();
  bool core_done = false;
  u64 grace = 0;
  // Slow-domain schedule without the per-cycle div/mod: tick the slow domain
  // every `ratio`-th fast cycle and count its cycles directly. The next slow
  // tick fires in the iteration whose fast cycle is fast_now_+until_slow-1.
  u32 until_slow = ratio;
  Cycle slow_now = fast_now_ / ratio;
  // Whether the last stepped core cycle changed state (see BoomCore::tick);
  // only a fixed-point core may be fast-forwarded, and only then are its
  // recorded dispatch-block hints valid.
  bool core_active = true;
  // The last stepped cycle was frozen by back-pressure; never set under the
  // stepped reference loop.
  bool frozen = false;

  // Skip windows: run() only chooses each window's target; jump_to walks it.
  while (fast_now_ < cfg_.max_fast_cycles) {
    // --- Back-pressure window over frozen fast cycles. -------------------
    // The frozen state: the core's last tick changed nothing but its refusal
    // counter (lane 0 refused, no commit, dispatch, fetch or PRF
    // preemption), and tick_fast found the CDC full before issuing anything
    // with lane 0's FIFO still full after its placeholder drops. Nothing in
    // the fast domain moves again until the slow domain pops the CDC or the
    // core's dispatch stage unblocks on its own, so the target is the core's
    // horizon; the walker ends the window early if a slow tick frees the CDC.
    if (frozen) {
      frozen = false;
      if (frontend_->cdc().full()) {
        const Cycle core_ev = core_->next_event();
        const Cycle target = std::min<Cycle>(core_ev, cfg_.max_fast_cycles);
        if (target > fast_now_) {
          ++sched_.backpressure_windows;
          jump_to(target,
                  target == core_ev ? SkipBound::kCore : SkipBound::kCap,
                  /*frozen=*/true, until_slow, slow_now);
          continue;  // step the cycle that ends the window
        }
      }
    }

    // --- Event-driven fast-forward over provably dead fast cycles. -------
    // Preconditions: the stepped reference loop is not forced, the core is
    // at a fixed point (or finished), and the fast-domain frontend is empty
    // (a buffered packet makes the arbiter/mapper progress every cycle).
    // The core horizon is O(1); evaluating the slow domain only pays off
    // once the core is known to be dead for more than one cycle.
    const Cycle core_ev = (exact || core_active)      ? 0
                          : core_done                 ? kNoEvent
                                                      : core_->next_event();
    if (core_ev > fast_now_ + 1 && frontend_->filter().buffered() == 0) {
      if (!core_done) {
        // --- Drain window: jump the core to its own horizon. -------------
        // With the core at a fixed point and the filter drained, nothing
        // the slow domain does can reach the fast domain before the core's
        // horizon: commits are the only filter feed, tick_fast is gated on
        // a non-empty filter, and engine back-pressure is only read inside
        // tick_fast. This is what turns a 190-cycle DRAM miss into one skip
        // instead of ratio-bounded two-cycle hops.
        const Cycle target = std::min<Cycle>(core_ev, cfg_.max_fast_cycles);
        if (target > fast_now_ + 1) {
          if (fast_now_ + (until_slow - 1) < target) ++sched_.drain_windows;
          jump_to(target,
                  target == core_ev ? SkipBound::kCore : SkipBound::kCap,
                  /*frozen=*/false, until_slow, slow_now);
          continue;  // re-evaluate at the horizon
        }
      } else {
        // --- Post-completion skip: slow-horizon-capped. ------------------
        // After the core finishes, the fast domain exists only to clock the
        // slow domain toward quiescence; the skip target is the fast cycle
        // of the next slow event's tick, capped by the grace window and
        // drain backstop, which advance (and break) exactly as if each
        // quiescent cycle had been stepped.
        Cycle target = kNoEvent;
        SkipBound bound = SkipBound::kSlow;
        const Cycle slow_ev = slow_next_event(slow_now);
        if (slow_ev != kNoEvent) {
          target = fast_now_ + (until_slow - 1) + (slow_ev - slow_now) * ratio;
        }
        Cycle cap = std::min(cfg_.max_fast_cycles,
                             core_done_cycle_ + kDrainBackstop + 1);
        const bool grace_cond = frontend_->cdc().empty() && engines_drained();
        if (grace_cond) {
          cap = std::min(cap, fast_now_ + (kGraceLimit + 1 - grace));
        }
        if (cap < target) {
          target = cap;
          bound = SkipBound::kCap;
        }
        if (target != kNoEvent && target > fast_now_ + 1) {
          const u64 delta = target - fast_now_;
          jump_to(target, bound, /*frozen=*/false, until_slow, slow_now);
          if (grace_cond) {
            grace += delta;
            if (grace > kGraceLimit) break;
          } else {
            grace = 0;
          }
          if (fast_now_ - core_done_cycle_ > kDrainBackstop) break;
          continue;  // re-evaluate at the horizon
        }
      }
    }

    // --- One stepped reference cycle. ------------------------------------
    core_active = false;
    bool refused = false;
    if (!core_done) {
      // A refused head is a core fixed point, but only the back-pressure
      // window may skip it: the drain-window skip at the loop top needs a
      // core that waits on time alone, and a refused head commits as soon
      // as lane 0 has room — which this cycle's arbiter pass may already
      // have made.
      const bool changed = core_->tick_t(this);
      refused = !changed && core_->head_refused();
      core_active = changed || refused;
      if (core_->done()) {
        core_done = true;
        core_done_cycle_ = core_->now();
      }
    }
    // With nothing buffered the fast-domain frontend has nothing to
    // arbitrate, and the stall-attribution hint it would latch cannot be
    // read before the next tick_fast (a refusal needs a FIFO that was
    // already non-empty last cycle).
    if (frontend_->filter().buffered() != 0) {
      const bool arbiter_stalled =
          frontend_->tick_fast(fast_now_, *this, engines_blocked_);
      // Frozen only while lane 0 stays full: the arbiter pass may have
      // dropped placeholders from lane 0 and freed it for the next commit.
      frozen = refused && arbiter_stalled && !exact &&
               !frontend_->filter().lane_ready(0);
    }
    if (--until_slow == 0) {
      slow_tick(slow_now++);
      ++sched_.slow_ticks_run;
      until_slow = ratio;
    }
    ++fast_now_;
    ++sched_.cycles_stepped;

    if (core_done && frontend_->filter().buffered() == 0 &&
        frontend_->cdc().empty() && engines_drained()) {
      // Let in-flight NoC tokens and pipeline residue settle.
      if (++grace > kGraceLimit) break;
    } else {
      grace = 0;
    }
    if (core_done && fast_now_ - core_done_cycle_ > kDrainBackstop) break;
  }
  if (!core_done) core_done_cycle_ = core_->now();
}

void Soc::match_detections() const {
  if (match_valid_ && match_cycle_ == fast_now_) return;
  const u32 ratio = std::max<u32>(1, cfg_.frontend.freq_ratio);
  std::vector<DetectionRecord> out;
  u64 total = 0;
  std::unordered_map<u64, size_t> addr_cursor;  // consume address matches FIFO
  for (const Engine& e : engines_) {
    total += e.detections().size();
    for (const ucore::Detection& d : e.detections()) {
      // Match by id (debug-data payload) first, then by faulting address.
      u32 id = 0;
      if (attack_commit_.contains(static_cast<u32>(d.payload))) {
        id = static_cast<u32>(d.payload);
      } else {
        auto it = attack_by_addr_.find(d.aux);
        if (it != attack_by_addr_.end()) {
          size_t& cur = addr_cursor[d.aux];
          if (cur < it->second.size()) id = it->second[cur++];
        }
      }
      if (id == 0) continue;  // spurious (counted apart)
      DetectionRecord r;
      r.attack_id = id;
      r.engine = d.engine;
      r.commit_fast = attack_commit_.at(id);
      r.detect_fast = (d.cycle_slow + 1) * ratio;
      const double cycles = r.detect_fast > r.commit_fast
                                ? static_cast<double>(r.detect_fast - r.commit_fast)
                                : 1.0;
      r.latency_ns = cycles / cfg_.fast_ghz;
      out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DetectionRecord& a, const DetectionRecord& b) {
              return a.attack_id < b.attack_id;
            });
  matched_ = std::move(out);
  spurious_ = total > matched_.size() ? total - matched_.size() : 0;
  match_cycle_ = fast_now_;
  match_valid_ = true;
}

std::vector<DetectionRecord> Soc::detections() const {
  match_detections();
  return matched_;
}

u64 Soc::spurious_detections() const {
  match_detections();
  return spurious_;
}

std::array<double, 5> Soc::stall_fractions() const {
  std::array<double, 5> f{};
  const double cycles = static_cast<double>(std::max<Cycle>(1, core_done_cycle_));
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = static_cast<double>(frontend_->stats().stall_by_cause[i]) / cycles;
  }
  return f;
}

u64 Soc::total_packets_processed() const {
  u64 n = 0;
  for (const Engine& e : engines_) {
    n += e.ucore ? e.ucore->stats().packets_popped : e.ha->packets_processed();
  }
  return n;
}

}  // namespace fg::soc
