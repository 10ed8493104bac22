// fgperf_driver: runs ONE benchmark workload for a fixed wall-clock window
// and prints its raw samples, simulated results, per-layer counters and
// correctness verdict as one JSON object on stdout. fgperf/run.py builds
// this program, turns the samples into metrics (fgperf/stats.py) and prints
// the benchmark record; see fgperf/README.md.
//
//   fgperf_driver --workload hotloop_asan --seed 1 --seconds 12 --trace 0
//                 --campaign-spec <repo>/examples/campaign_quick.json
//
// Relative paths (stores, the serve socket) resolve against the working
// directory, which run.py points at a work directory of its own.
//
// Spans are recorded here, around calls into each layer's public functions;
// the simulator itself is not instrumented. With --trace 0 no span is
// recorded; with --trace 1 untraced and traced units of work alternate, so
// the overhead of tracing is measured on adjacent pairs.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/campaign.h"
#include "src/api/session.h"
#include "src/api/snapshot.h"
#include "src/api/spec.h"
#include "src/boom/core.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/simctl.h"
#include "src/mem/hierarchy.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/protocol.h"
#include "src/soc/experiment.h"
#include "src/soc/figures.h"
#include "src/soc/soc.h"
#include "src/store/faultfs.h"
#include "src/store/result_store.h"
#include "src/trace/workload.h"

namespace {

using namespace fg;
using json::Value;

// --- workload shapes ---------------------------------------------------------
// Hot loops: many short traces per run (seeds derived from --seed). Short
// timed runs give every trace many samples per run; many traces average out
// how much one trace's cost depends on its seed. Each run injects >= 100
// attacks in total, so the p90 detection latency has >= 10 samples beyond
// it.
struct HotShape {
  u32 points;
  u64 insts;    // per trace
  u32 attacks;  // per trace
};
constexpr HotShape kAsanShape{24, 75'000, 8};
constexpr HotShape kMemstallShape{8, 150'000, 13};
// campaign_sweep: the examples/campaign_quick.json grid at a small trace.
constexpr u64 kCampaignTraceLen = 20'000;
constexpr u32 kCampaignJobs = 3;
constexpr u32 kCampaignSample = 8;  // points re-executed in-process
constexpr u32 kSetupReps = 5;       // runner set-ups timed per campaign
// service_mix: single-point ASan/x264 submissions.
constexpr u64 kServeTraceLen = 20'000;
constexpr u32 kServeAttacks = 12;
constexpr u32 kServeWorkers = 2;
constexpr u32 kServeSample = 10;  // first cold points, re-executed in-process
constexpr u32 kServeRounds = 40;  // lockstep rounds per daemon session

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flush dirty file data before a timed unit of store work. Every campaign
// and every daemon writes thousands of small fsync'd files; without this the
// kernel's writeback of the previous unit's files competes with the next
// unit's fsyncs, and the unit's time depends on what ran before it.
void settle_disk() { ::sync(); }

template <class F>
double median_of(u32 n, F f) {
  std::vector<double> v;
  for (u32 i = 0; i < n; ++i) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

u64 mix(u64 a, u64 b) {
  Rng r(a * 0x9e3779b97f4a7c15ull + b + 1);
  r.next();
  return r.next();
}

// --- spans ---------------------------------------------------------------------
// In-memory span log: name, parent, start, end. Written out with the result;
// run.py computes self times (duration minus child coverage).
class Tracer {
 public:
  bool on = false;

  int open(const std::string& name, int parent = -1) {
    if (!on) return -1;
    spans_.push_back({name, parent, now_s(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void add(const std::string& name, int parent, double t0, double t1) {
    if (on) spans_.push_back({name, parent, t0, t1});
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].t1 = now_s();
  }
  Value to_json() const {
    Value arr = Value::array();
    for (const Span& s : spans_) {
      Value v = Value::object();
      v.set("name", Value::of_str(s.name));
      v.set("parent", Value::of_double(s.parent));
      v.set("t0", Value::of_double(s.t0));
      v.set("t1", Value::of_double(s.t1));
      arr.push(std::move(v));
    }
    return arr;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double t0;
    double t1;
  };
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent = -1)
      : t_(t), id_(t.open(name, parent)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// --- host-speed probe --------------------------------------------------------------
// This host's speed drifts by tens of percent between seconds and between
// runs: other tenants share its cores, and a run is slow or fast depending
// on the core it lands on and what the core's other hyperthread is doing.
// The probe is a fixed kernel, written here and untouched by any simulator
// change: integer hashing with three in four updates to an L1-sized block
// and one in four to a 1 MiB table. It runs on the timing thread right next
// to each timed unit of CPU-bound work, and run.py divides the unit's time
// by it, so a run that met a slow stretch still reports what the code costs.
// (The table is part of the driver's resident memory: a fixed 1 MiB.)
class HostProbe {
 public:
  /// Seconds for one probe kernel.
  double run() {
    const u64 mask = table_.size() - 1;
    u64 x = 12345;
    u64 acc = 0;
    const double t0 = now_s();
    for (u32 i = 0; i < 400'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      u64 k = (x >> 30) & mask;
      if ((i & 3) != 0) k &= 4095;
      table_[k] += x;
      acc += (table_[k] & 1) != 0 ? x : k;
    }
    const double t = now_s() - t0;
    table_[acc & mask] ^= acc;  // keep the loop observable
    return t;
  }
  /// Median of `n` probes, for a reading around a longer unit of work.
  double median(u32 n) { return median_of(n, [this] { return run(); }); }

 private:
  std::vector<u64> table_ = std::vector<u64>(1u << 17);
};

// The store fsyncs every publish and every journal entry, and this host's
// fsync latency drifts by a factor of three within half an hour, which no
// CPU probe sees. The disk probe is one fixed durable write in the work
// directory, made with plain POSIX calls so that no store change can move
// it: 256 bytes into a temp file, fsync, rename over the probe file. run.py
// weighs it against the CPU probe for units that wait on the store.
class DiskProbe {
 public:
  double run() {
    const double t0 = now_s();
    const int fd = ::open("disk_probe.tmp", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const bool ok = ::write(fd, buf_, sizeof buf_) == sizeof buf_;
      ::fsync(fd);
      ::close(fd);
      if (ok) ::rename("disk_probe.tmp", "disk_probe");
    }
    return now_s() - t0;
  }
  double median(u32 n) { return median_of(n, [this] { return run(); }); }

 private:
  char buf_[256] = {};
};


// --- the result object -----------------------------------------------------------
// `series` holds sample lists (run.py applies the estimators), `counters`
// single numbers, `sim` the deterministic simulated results.
struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> counters;
  std::vector<double> latency_ns;  // simulated detection latencies, pooled
  u64 sim_cycles = 0;              // FireGuard post-warmup cycles, summed
  u64 base_cycles = 0;             // unmonitored baseline cycles, summed
  Tracer tracer;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void add_detections(const api::StatSnapshot& s, double fast_ghz) {
    for (const api::DetectionSnap& d : s.detections) {
      latency_ns.push_back(static_cast<double>(d.detect_fast - d.commit_fast) /
                           fast_ghz);
    }
  }
};

// Both probes, read around one unit of store-bound work (median of three
// before and three after).
struct Probes {
  HostProbe cpu;
  DiskProbe disk;
  double cpu_s = 0.0;
  double disk_s = 0.0;

  void before() {
    cpu_s = cpu.median(3);
    disk_s = disk.median(3);
  }
  void after(const std::string& prefix, Result* r) {
    r->series[prefix + "probe_s"].push_back((cpu_s + cpu.median(3)) / 2);
    r->series[prefix + "disk_s"].push_back((disk_s + disk.median(3)) / 2);
  }
};

// --- hot loops -------------------------------------------------------------------

api::ExperimentSpec hotloop_spec(bool asan, u64 seed) {
  api::ExperimentSpec s = api::table2_spec("x264");
  if (asan) {
    s.name = "fgperf/hotloop_asan";
    s.workload = soc::paper_workload(
        "x264", kAsanShape.insts,
        {{trace::AttackKind::kHeapOob, kAsanShape.attacks}});
    s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  } else {
    s.name = "fgperf/hotloop_memstall";
    s.workload = soc::memstall_workload(kMemstallShape.insts);
    s.workload.attacks = {{trace::AttackKind::kPcHijack, kMemstallShape.attacks}};
    s.soc = soc::memstall_soc();
    s.soc.kernels = {soc::deploy(kernels::KernelKind::kPmc, 4)};
  }
  s.workload.seed = seed;
  return s;
}

// spec -> trace source + Soc, exactly as api::run_spec builds a FireGuard run.
struct BuiltSoc {
  std::unique_ptr<trace::WorkloadGen> gen;
  std::unique_ptr<soc::Soc> soc;
};

BuiltSoc build_soc(const api::ExperimentSpec& spec) {
  BuiltSoc b;
  b.gen = std::make_unique<trace::WorkloadGen>(spec.workload);
  soc::SocConfig sc = spec.soc;
  sc.kparams.text_lo = b.gen->text_lo();
  sc.kparams.text_hi = b.gen->text_hi();
  sc.warm_regions = soc::default_warm_regions(*b.gen, spec.workload.profile);
  b.soc = std::make_unique<soc::Soc>(sc, *b.gen);
  return b;
}

api::StatSnapshot snapshot(const BuiltSoc& b) {
  return api::snapshot_of(*b.soc, b.gen->planned_attacks());
}

// The unmonitored baseline, built like soc::run_baseline_cycles but keeping
// the memory hierarchy, whose counters are the mem layer's work counts.
struct BaselineRun {
  double run_s = 0.0;  // BoomCore::run_to_end only, set-up excluded
  Cycle cycles = 0;
  u64 tlb_accesses = 0;
  u64 tlb_misses = 0;
  u64 ptw_walks = 0;
  u64 dram_requests = 0;
};

BaselineRun run_baseline_layer(const api::ExperimentSpec& spec, Tracer& t,
                                 int parent) {
  trace::WorkloadGen gen(spec.workload);
  mem::MemHierarchy mem(spec.soc.mem);
  for (const auto& [lo, hi] :
       soc::default_warm_regions(gen, spec.workload.profile)) {
    mem.warm_region(lo, hi);
  }
  mem.reset_stats();
  boom::BoomCore core(spec.soc.core, mem, gen);
  BaselineRun p;
  const double t0 = now_s();
  {
    ScopedSpan s(t, "boom.baseline", parent);
    core.run_to_end(nullptr, spec.soc.max_fast_cycles);
  }
  p.run_s = now_s() - t0;
  p.cycles = core.now();
  p.tlb_accesses = mem.itlb().stats().accesses + mem.dtlb().stats().accesses;
  p.tlb_misses = mem.itlb().stats().misses + mem.dtlb().stats().misses;
  if (mem.ptw() != nullptr) p.ptw_walks = mem.ptw()->stats().walks;
  if (mem.dram() != nullptr) p.dram_requests = mem.dram()->stats().requests;
  return p;
}

void run_hotloop(bool asan, u64 seed, double seconds, bool trace, HostProbe& hp,
                 Result* r) {
  const u32 npoints = asan ? kAsanShape.points : kMemstallShape.points;
  std::vector<api::ExperimentSpec> specs;
  for (u32 i = 0; i < npoints; ++i) {
    specs.push_back(hotloop_spec(asan, mix(seed, i)));
  }
  std::vector<api::StatSnapshot> first(npoints);
  std::vector<bool> have_first(npoints, false);
  std::vector<u64> committed(npoints, 0);

  // One round = every point once: build (set-up), probe the host, run
  // (timed), check that the snapshot equals the first round's (rerun
  // determinism). Series are per point; `prefix` keeps traced rounds apart.
  // With `layers`, each point first times two layers alone: the trace
  // generator, and the unmonitored core + memory model (which generates its
  // trace as it goes). `count` adds the per-layer work counts (the same in
  // every round, so they are taken once).
  auto round = [&](const std::string& prefix, bool layers, bool count) {
    for (u32 i = 0; i < npoints; ++i) {
      const std::string idx = std::to_string(i);
      ScopedSpan point(r->tracer, "hotloop.point");
      auto add = [&](const char* name, u64 v) {
        if (count) r->counters[name] += static_cast<double>(v);
      };
      if (layers) {
        trace::WorkloadGen gen(specs[i].workload);
        trace::TraceInst ti;
        u64 n = 0;
        const double t0 = now_s();
        {
          ScopedSpan s(r->tracer, "trace.gen", point.id());
          while (gen.next(ti)) ++n;
        }
        r->series["trace.gen_s." + idx].push_back(now_s() - t0);
        add("trace.insts", n);
        const BaselineRun bp = run_baseline_layer(specs[i], r->tracer, point.id());
        r->series["boom.baseline_s." + idx].push_back(bp.run_s);
        add("boom.baseline_cycles", bp.cycles);
        add("mem.tlb_accesses", bp.tlb_accesses);
        add("mem.tlb_misses", bp.tlb_misses);
        add("mem.ptw_walks", bp.ptw_walks);
        add("mem.dram_requests", bp.dram_requests);
      }
      const double t0 = now_s();
      BuiltSoc b;
      {
        ScopedSpan s(r->tracer, "soc.setup", point.id());
        b = build_soc(specs[i]);
      }
      r->series[prefix + "setup_s." + idx].push_back(now_s() - t0);
      r->series[prefix + "probe_s." + idx].push_back(hp.run());
      const double t1 = now_s();
      {
        ScopedSpan s(r->tracer, "soc.fireguard", point.id());
        b.soc->run();
      }
      r->series[prefix + "point_s." + idx].push_back(now_s() - t1);
      ++r->attempted;
      const api::StatSnapshot snap = snapshot(b);
      if (!have_first[i]) {
        first[i] = snap;
        have_first[i] = true;
        committed[i] = snap.committed;
      } else if (!api::snapshots_equal(first[i], snap)) {
        r->fail("hotloop point " + idx + ": rerun snapshot differs");
      }
      const soc::SchedStats& st = b.soc->sched_stats();
      add("boom.commit_stall_fireguard",
          b.soc->core().stats().commit_stall_fireguard);
      add("soc.cycles_stepped", st.cycles_stepped);
      add("soc.cycles_skipped", st.cycles_skipped);
      add("soc.slow_ticks_run", st.slow_ticks_run);
      add("soc.slow_ticks_skipped", st.slow_ticks_skipped);
    }
  };

  // At least three rounds, so every point has three samples. A traced run
  // alternates untraced and traced rounds, so the cost of tracing is read
  // from adjacent pairs of rounds, not from two stretches of the window.
  const double t_start = now_s();
  for (u32 n = 0; n < 3 || now_s() < t_start + seconds; ++n) {
    round("", false, false);
    if (trace) {
      r->tracer.on = true;
      round("traced_", true, n == 0);
      r->tracer.on = false;
    }
  }
  for (u32 i = 0; i < npoints; ++i) {
    r->series["point_insts"].push_back(static_cast<double>(committed[i]));
  }

  // Correctness, outside the timed window: the event-driven snapshot must
  // equal the FG_CYCLE_EXACT stepped reference, every planned attack must
  // be detected, and nothing spurious.
  const double fast_ghz = specs[0].soc.fast_ghz;
  u64 planned = 0;
  for (u32 i = 0; i < npoints; ++i) {
    const std::string idx = std::to_string(i);
    planned += first[i].planned_attacks;
    set_cycle_exact(true);
    BuiltSoc ref = build_soc(specs[i]);
    ref.soc->run();
    const api::StatSnapshot exact = snapshot(ref);
    set_cycle_exact(false);
    if (!api::snapshots_equal(exact, first[i])) {
      r->fail("hotloop point " + idx + ": event snapshot != FG_CYCLE_EXACT:\n" +
              api::snapshot_diff(exact, first[i], "exact", "event"));
    }
    if (first[i].detections.size() != first[i].planned_attacks ||
        first[i].spurious != 0) {
      r->fail("hotloop point " + idx + ": detected " +
              std::to_string(first[i].detections.size()) + " of " +
              std::to_string(first[i].planned_attacks) + " attacks, " +
              std::to_string(first[i].spurious) + " spurious");
    }
    r->sim_cycles += first[i].cycles;
    r->base_cycles += soc::run_baseline_cycles(specs[i].workload, specs[i].soc);
    r->add_detections(first[i], fast_ghz);
    if (trace) {
      for (const api::EngineSnap& e : first[i].engines) {
        r->counters["ucore.busy_cycles"] += static_cast<double>(e.busy_cycles);
        r->counters["ucore.stall_cycles"] += static_cast<double>(e.stall_cycles);
        r->counters["ucore.packets_popped"] +=
            static_cast<double>(e.packets_popped);
      }
      r->counters["core.filter_valid"] += static_cast<double>(first[i].filter_valid);
      r->counters["core.arbiter_blocked"] +=
          static_cast<double>(first[i].arbiter_blocked);
      r->counters["core.mapper_conflicts"] +=
          static_cast<double>(first[i].mapper_conflicts);
      r->counters["core.cdc_pushes"] += static_cast<double>(first[i].cdc_pushes);
      r->counters["core.cdc_rejects"] += static_cast<double>(first[i].cdc_rejects);
    }
  }
  if (planned < 100) r->fail("hotloop: fewer than 100 attacks planned");
}

// --- campaign_sweep ----------------------------------------------------------------

// The examples/campaign_quick.json grid (50 seeds x {pmc, asan} x {2, 4}
// engines) with its seed axis re-drawn from the benchmark seed, a small
// trace, and one attack kind for each kernel half of the grid to detect.
bool campaign_spec(const std::string& path, u64 seed, api::ExperimentSpec* spec,
                   std::string* err) {
  std::string text;
  if (!store::read_file(path, &text, err)) return false;
  if (!api::spec_from_json(text, spec, err)) return false;
  if (!api::apply_set(spec, "trace_len", std::to_string(kCampaignTraceLen), err) ||
      !api::apply_set(spec, "attacks", "pc_hijack:4,heap_oob:4", err)) {
    return false;
  }
  for (api::SweepAxis& ax : spec->sweep) {
    if (ax.key != "seed") continue;
    for (size_t i = 0; i < ax.values.size(); ++i) {
      ax.values[i] = std::to_string(mix(seed, 1000 + i) >> 16);
    }
  }
  return true;
}

// Fold stored outcome payloads into the simulated results.
bool add_payload(const std::string& payload, Result* r) {
  Value v;
  if (!json::parse(payload, &v) || !v.is_object()) return false;
  const Value* snap = v.get("snapshot");
  api::StatSnapshot s;
  if (snap == nullptr || !api::snapshot_from_json(json::dump(*snap), &s)) {
    return false;
  }
  r->sim_cycles += v.get_u64("cycles");
  r->base_cycles += v.get_u64("baseline_cycles");
  r->add_detections(s, soc::SocConfig{}.fast_ghz);
  return v.get_u64("baseline_cycles") != 0;
}

void audit_store(const std::string& dir, const char* what, Result* r) {
  store::ResultStore st;
  std::string err;
  store::ResultStore::AuditReport rep;
  if (!st.open(dir, &err) || !st.audit(&rep, &err)) {
    r->fail(std::string(what) + ": store audit failed: " + err);
  } else if (rep.quarantined != 0 || rep.ok != rep.entries || rep.entries == 0) {
    r->fail(std::string(what) + ": store audit found " +
            std::to_string(rep.quarantined) + " corrupt of " +
            std::to_string(rep.entries));
  }
}

void run_campaign(const std::string& spec_path, u64 seed, double seconds,
                  bool trace, Probes& pr, Result* r) {
  api::ExperimentSpec spec;
  std::string err;
  if (!campaign_spec(spec_path, seed, &spec, &err)) {
    r->fail("campaign spec: " + err);
    return;
  }
  std::vector<std::string> first;

  // One campaign into a fresh, empty store; both probes are read before and
  // after its run. The store's directory layout is created first, untimed:
  // it is a one-time cost of a store, and its fsyncs would make the timed
  // set-up (expand the grid, open the store, create the journal) a disk
  // latency figure. Stores are deleted after the window, so no deletion
  // competes with a timed campaign for the disk. Series names carry
  // `prefix` ("", "traced_", "inprocess_").
  u32 made = 0;
  auto one = [&](bool isolate, const std::string& prefix) {
    const std::string dir = "campaigns/" + std::to_string(made++);
    api::CampaignConfig cfg;
    cfg.store_dir = dir;
    cfg.jobs = kCampaignJobs;
    cfg.isolate = isolate;
    for (u32 k = 0; k < kSetupReps; ++k) {
      if (store::ResultStore layout;
          !layout.open(dir + (k == 0 ? "" : "-" + std::to_string(k)), &err)) {
        r->fail("campaign: create store: " + err);
      }
    }
    settle_disk();
    // A set-up takes about half a millisecond, so each campaign also sets up
    // kSetupReps - 1 runners that never run, each on a store of its own. The
    // set-ups come before the probes: the disk probe's fsyncs would keep the
    // file system's journal busy while the runners create their journals.
    for (u32 k = 1; k < kSetupReps; ++k) {
      api::CampaignConfig c = cfg;
      c.store_dir = dir + "-" + std::to_string(k);
      const double t0 = now_s();
      api::CampaignRunner runner(spec, c);
      if (!runner.init(&err)) r->fail("campaign: init: " + err);
      r->series[prefix + "setup_s"].push_back(now_s() - t0);
    }
    bool ok = false;
    size_t n = 0;
    api::CampaignStats stats;
    std::vector<std::string> payloads;
    {
      const double t0 = now_s();
      api::CampaignRunner runner(spec, cfg);
      ok = runner.init(&err);
      const double t1 = now_s();
      r->series[prefix + "setup_s"].push_back(t1 - t0);
      r->tracer.add("campaign.init", -1, t0, t1);
      pr.before();
      const double t2 = now_s();
      if (ok) {
        ScopedSpan s(r->tracer,
                     isolate ? "campaign.run" : "campaign.inprocess");
        ok = runner.run(&err);
      }
      r->series[prefix + "campaign_s"].push_back(now_s() - t2);
      n = runner.points().size();
      stats = runner.stats();
      payloads = runner.payloads();
    }
    pr.after(prefix, r);
    r->attempted += n;
    if (!ok) {
      r->fail("campaign: " + err);
      r->failed += n - 1;
      return;
    }
    r->counters["campaign.points"] = static_cast<double>(n);
    r->counters["campaign.executed"] += static_cast<double>(stats.executed);
    r->counters["campaign.retries"] += static_cast<double>(stats.retries);
    r->counters["campaign.runs"] += 1;
    if (stats.executed != n || stats.failed != 0 || stats.from_store != 0) {
      r->fail("campaign: executed " + std::to_string(stats.executed) + " of " +
              std::to_string(n) + ", failed " + std::to_string(stats.failed));
    }
    if (first.empty()) {
      first = payloads;
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (payloads[i] != first[i]) r->fail("campaign: payload " +
                                             std::to_string(i) + " differs");
      }
    }
    audit_store(dir, "campaign", r);
  };

  // As for the hot loops, a traced run alternates untraced and traced
  // campaigns.
  const double t_start = now_s();
  for (u32 n = 0; n < 3 || now_s() < t_start + seconds; ++n) {
    one(true, "");
    if (trace) {
      r->tracer.on = true;
      one(true, "traced_");
      r->tracer.on = false;
    }
  }
  std::vector<api::GridPoint> points;
  if (!api::expand_grid(spec, &points, &err) || points.size() != first.size()) {
    r->fail("campaign: grid expansion: " + err);
    return;
  }
  if (trace) {
    r->tracer.on = true;
    // In-process comparison run (no fork per point) and per-call layer
    // timings: PointExecutor::execute, ResultStore::put and ::get.
    for (u32 n = 0; n < 3; ++n) {
      one(false, "inprocess_");
    }
    store::ResultStore st;
    if (!st.open("campaigns/layers", &err)) r->fail("layer store: " + err);
    api::PointExecutor ex(true);
    for (size_t i = 0; i < points.size() && i < 40; ++i) {
      const double t0 = now_s();
      api::RunOutcome o;
      {
        ScopedSpan s(r->tracer, "api.execute");
        o = ex.execute(points[i]);
      }
      r->series["api.execute_s"].push_back(now_s() - t0);
      const std::string key = api::result_key(points[i].spec, true);
      const std::string payload = api::outcome_payload(std::move(o));
      const double t1 = now_s();
      {
        ScopedSpan s(r->tracer, "store.put");
        if (!st.put(key, payload, &err)) r->fail("layer put: " + err);
      }
      r->series["store.publish_s"].push_back(now_s() - t1);
      std::string back;
      const double t2 = now_s();
      {
        ScopedSpan s(r->tracer, "store.get");
        if (st.get(key, &back) != store::ResultStore::GetStatus::kHit ||
            back != payload) {
          r->fail("layer get: miss or wrong payload");
        }
      }
      r->series["store.get_hit_s"].push_back(now_s() - t2);
    }
    r->counters["store.publishes"] = static_cast<double>(st.stats().publishes);
    r->tracer.on = false;
  }
  std::filesystem::remove_all("campaigns");

  // Correctness: a seeded sample of stored payloads must be byte-identical
  // to an in-process PointExecutor run of the same point.
  api::PointExecutor ex(true);
  Rng pick(mix(seed, 77));
  for (u32 k = 0; k < kCampaignSample; ++k) {
    const size_t i = pick.below(points.size());
    const std::string payload = api::outcome_payload(ex.execute(points[i]));
    if (payload != first[i]) {
      r->fail("campaign: point " + std::to_string(i) +
              " payload differs from in-process execution");
    }
  }
  for (const std::string& p : first) {
    if (!add_payload(p, r)) r->fail("campaign: unreadable payload");
  }
}

// --- service_mix --------------------------------------------------------------------

api::ExperimentSpec serve_spec(u64 seed) {
  api::ExperimentSpec s = api::table2_spec("x264");
  s.name = "fgperf/service_mix";
  s.workload = soc::paper_workload(
      "x264", kServeTraceLen, {{trace::AttackKind::kHeapOob, kServeAttacks}});
  s.workload.seed = seed;
  s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  return s;
}

// Fork a daemon on `dir`/store and `dir`/serve.sock; returns its pid once a
// stats round trip succeeds (-1 on failure). The child runs the daemon's
// event loop single-threaded and exits when asked to shut down.
pid_t start_daemon(const std::string& dir, std::string* err) {
  std::filesystem::create_directories(dir);
  serve::ServeConfig cfg;
  cfg.store_dir = dir + "/store";
  cfg.socket_path = dir + "/serve.sock";
  cfg.workers = kServeWorkers;
  cfg.quiet = true;
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    serve::ServeDaemon d(cfg);
    std::string e;
    const bool ok = d.init(&e) && d.run(&e);
    if (!ok) std::fprintf(stderr, "fgperf: daemon: %s\n", e.c_str());
    std::_Exit(ok ? 0 : 1);
  }
  if (pid < 0) {
    *err = "fork failed";
    return -1;
  }
  const double deadline = now_s() + 20.0;
  while (now_s() < deadline) {
    serve::Client c;
    Value resp;
    if (c.connect(cfg.socket_path, err) &&
        c.call(serve::simple_request("stats"), &resp, err) &&
        resp.get_bool("ok")) {
      return pid;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      *err = "daemon exited during start-up";
      return -1;
    }
    ::usleep(50);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  *err = "daemon did not come up";
  return -1;
}

bool stop_daemon(const std::string& dir, pid_t pid) {
  serve::Client c;
  std::string err;
  Value resp;
  if (!c.connect(dir + "/serve.sock", &err) ||
      !c.call(serve::simple_request("shutdown"), &resp, &err)) {
    ::kill(pid, SIGKILL);  // unreachable daemon: never wait on it forever
  }
  c.close();
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

enum class Kind : u8 { kCold, kHit, kDedupe };
const char* kind_name(Kind k) {
  return k == Kind::kCold ? "cold" : k == Kind::kHit ? "hit" : "dedupe";
}

// The seeded submission plan. Each round of a session is, by a seeded draw,
// cold (each connection sends its own new point), hit (each re-sends a point
// answered earlier in the session: a store hit) or dedupe (both send the
// same new point at once: an in-flight dedupe). The plan is a pure function
// of (seed, session, round), so both client threads derive the same
// answered-point list.
struct ServePlan {
  u64 seed;
  u64 base = mix(seed, 4242) >> 20;

  u64 global(u32 session, u32 round) const {
    return u64{session} * kServeRounds + round;
  }
  u64 cold_seed(u32 session, u32 round, u32 conn) const {
    return base + 2 * global(session, round) + conn;
  }
  Kind kind(u32 session, u32 round) const {
    if (round == 0) return Kind::kCold;
    const u64 d = mix(seed, global(session, round)) % 4;
    return d < 2 ? Kind::kCold : d == 2 ? Kind::kHit : Kind::kDedupe;
  }
};

struct ServeCall {
  double t0;
  double t1;
  Kind kind;
};

struct ConnLog {
  std::vector<ServeCall> calls;
  std::vector<std::pair<u64, std::string>> cold_payloads;  // (seed, payload)
  u64 failures = 0;
  std::string why;
};

// One closed-loop session: the two connections in lockstep rounds.
void client_loop(const ServePlan& plan, u32 session, u32 conn,
                 const std::string& socket, std::barrier<>& sync,
                 ConnLog* log) {
  serve::Client c;
  std::string e;
  const bool connected = c.connect(socket, &e);
  std::vector<u64> answered;  // cold seeds answered in earlier rounds
  for (u32 round = 0; round < kServeRounds; ++round) {
    sync.arrive_and_wait();
    const Kind k = plan.kind(session, round);
    const u64 s =
        k == Kind::kHit
            ? answered[mix(plan.seed ^ conn, plan.global(session, round)) %
                       answered.size()]
            : plan.cold_seed(session, round, k == Kind::kCold ? conn : 0);
    const double t0 = now_s();
    Value resp;
    bool ok = connected &&
              c.call(serve::submit_request(serve_spec(s), /*wait=*/true,
                                           /*want_results=*/true,
                                           /*with_baseline=*/true),
                     &resp, &e);
    const double t1 = now_s();
    const Value* results = ok ? resp.get("results") : nullptr;
    ok = ok && resp.get_bool("ok") && resp.get_u64("failed", 1) == 0 &&
         results != nullptr && results->is_array() &&
         results->arr.size() == 1 && results->arr[0].is_object();
    if (!ok) {
      ++log->failures;
      if (log->why.empty()) log->why = e.empty() ? json::dump(resp) : e;
    } else if (k != Kind::kHit && log->cold_payloads.size() < kServeSample) {
      log->cold_payloads.emplace_back(s, json::dump(results->arr[0]));
    }
    log->calls.push_back({t0, t1, k});
    if (k == Kind::kCold) {
      answered.push_back(plan.cold_seed(session, round, 0));
      answered.push_back(plan.cold_seed(session, round, 1));
    } else if (k == Kind::kDedupe) {
      answered.push_back(plan.cold_seed(session, round, 0));
    }
  }
}

// The daemon's books after a session: every submitted point was a store
// hit, a dedupe hit or an execution, nothing failed or is in flight, and
// executions equal the unique points sent.
void check_books(const std::string& socket, u64 unique, Result* r) {
  serve::Client c;
  std::string err;
  Value resp;
  const Value* st = nullptr;
  if (!c.connect(socket, &err) ||
      !c.call(serve::simple_request("stats"), &resp, &err) ||
      (st = resp.get("stats")) == nullptr) {
    r->fail("serve stats: " + err);
    return;
  }
  const u64 submitted = st->get_u64("points_submitted");
  const u64 hits = st->get_u64("store_hits");
  const u64 dedupe = st->get_u64("dedupe_hits");
  const u64 executed = st->get_u64("executed");
  const u64 failed = st->get_u64("failed_points");
  const u64 cancelled = st->get_u64("cancelled_points");
  const u64 inflight = st->get_u64("queue_depth") + st->get_u64("running");
  if (submitted != hits + dedupe + executed + failed + cancelled + inflight ||
      submitted != 2 * kServeRounds || inflight != 0) {
    r->fail("serve: ServeStats identity broken: " + json::dump(*st));
  }
  if (executed != unique || failed != 0) {
    r->fail("serve: executed " + std::to_string(executed) + " for " +
            std::to_string(unique) + " unique points, failed " +
            std::to_string(failed));
  }
  r->counters["serve.store_hits"] += static_cast<double>(hits);
  r->counters["serve.dedupe_hits"] += static_cast<double>(dedupe);
  r->counters["serve.executed"] += static_cast<double>(executed);
  r->counters["serve.retries"] += static_cast<double>(st->get_u64("retries"));
  r->counters["serve.unique_points"] += static_cast<double>(unique);
  r->counters["serve.session_answers"] = 2.0 * kServeRounds;
}

// For the first cold points, the bytes in the store must be identical to an
// in-process PointExecutor run of the same point, and the answer the client
// got must be the same outcome. These outcomes also give the simulated
// results.
void check_cold_answers(store::ResultStore& st,
                        const std::vector<std::pair<u64, std::string>>& cold,
                        Result* r) {
  api::PointExecutor ex(true);
  for (const auto& [s, answer] : cold) {
    api::GridPoint p;
    p.spec = serve_spec(s);
    p.name = p.spec.name;
    std::string stored;
    const bool hit = st.get(api::result_key(p.spec, true), &stored) ==
                     store::ResultStore::GetStatus::kHit;
    const std::string mine = api::outcome_payload(ex.execute(p));
    Value parsed;
    if (!hit || stored != mine) {
      r->fail("serve: stored outcome for seed " + std::to_string(s) +
              " differs from in-process execution");
    } else if (!json::parse(mine, &parsed) || json::dump(parsed) != answer) {
      r->fail("serve: answer for seed " + std::to_string(s) +
              " differs from the stored outcome");
    }
    if (!add_payload(mine, r)) r->fail("serve: unreadable payload");
  }
  if (cold.size() < kServeSample) r->fail("serve: too few cold answers");
}

// One session: start a daemon on a fresh store (timed: setup_s), run
// kServeRounds lockstep rounds of the two connections (timed: session_s),
// then check the books, stop the daemon and audit its store. A session
// serves a fixed number of rounds, so the daemon's footprint (it keeps every
// finished submission in memory) does not depend on how fast the host is.
// As for a campaign, the store's directory layout (with the daemon's
// journal directory) is created first, untimed, and both probes are read
// around the session, after the start-up.
bool serve_session(const ServePlan& plan, u32 session, bool trace, Probes& pr,
                   Result* r) {
  const std::string dir = "serve";
  const std::string socket = dir + "/serve.sock";
  std::string err;
  std::filesystem::remove_all(dir);
  if (store::ResultStore layout;
      !layout.open(dir + "/store", &err) ||
      !store::make_dirs(dir + "/store/serve/queue", &err)) {
    r->fail("serve: create store: " + err);
    return false;
  }
  settle_disk();
  const double t0 = now_s();
  const pid_t pid = start_daemon(dir, &err);
  if (pid < 0) {
    r->fail("serve start: " + err);
    return false;
  }
  r->series["setup_s"].push_back(now_s() - t0);
  pr.before();

  ConnLog logs[2];
  const double t1 = now_s();
  {
    std::barrier<> sync(2);
    std::thread a(client_loop, std::cref(plan), session, 0u, std::cref(socket),
                  std::ref(sync), &logs[0]);
    std::thread b(client_loop, std::cref(plan), session, 1u, std::cref(socket),
                  std::ref(sync), &logs[1]);
    a.join();
    b.join();
  }
  r->series["session_s"].push_back(now_s() - t1);
  pr.after("", r);

  std::vector<u64> unique;  // every point seed sent, in plan order
  for (u32 round = 0; round < kServeRounds; ++round) {
    const Kind k = plan.kind(session, round);
    if (k != Kind::kHit) unique.push_back(plan.cold_seed(session, round, 0));
    if (k == Kind::kCold) unique.push_back(plan.cold_seed(session, round, 1));
  }
  check_books(socket, unique.size(), r);
  if (!stop_daemon(dir, pid)) r->fail("serve: daemon did not exit cleanly");
  audit_store(dir + "/store", "serve", r);

  // Client round trips become spans here (the span log is single-threaded).
  for (u32 conn = 0; conn < 2; ++conn) {
    const ConnLog& log = logs[conn];
    r->attempted += log.calls.size();
    if (log.failures != 0) {
      r->failed += log.failures;
      r->errors.push_back("serve conn " + std::to_string(conn) + ": " + log.why);
    }
    for (const ServeCall& c : log.calls) {
      const double ms = (c.t1 - c.t0) * 1e3;
      r->series["answer_ms"].push_back(ms);
      r->series[std::string("answer_ms.") + kind_name(c.kind)].push_back(ms);
      r->tracer.add(std::string("serve.call.") + kind_name(c.kind), -1, c.t0,
                    c.t1);
    }
  }

  store::ResultStore st;
  if (!st.open(dir + "/store", &err)) r->fail("serve: reopen store: " + err);
  if (trace) {
    // The store layer's hit latency: ResultStore::get of answered points.
    std::string stored;
    for (size_t i = 0; i < unique.size() && i < 20; ++i) {
      const std::string key = api::result_key(serve_spec(unique[i]), true);
      const double g0 = now_s();
      const bool hit = st.get(key, &stored) == store::ResultStore::GetStatus::kHit;
      r->series["store.get_hit_s"].push_back(now_s() - g0);
      if (!hit) r->fail("serve: answered point missing from the store");
    }
  }
  if (session == 0) check_cold_answers(st, logs[0].cold_payloads, r);
  std::filesystem::remove_all(dir);
  return true;
}

void run_service(u64 seed, double seconds, bool trace, Probes& pr, Result* r) {
  // No span is recorded while the clients run: their round trips are added
  // to the span log after each session, so tracing costs the loop nothing.
  r->tracer.on = trace;
  const ServePlan plan{seed};
  const double t_start = now_s();
  for (u32 s = 0; s < 3 || now_s() < t_start + seconds; ++s) {
    if (!serve_session(plan, s, trace, pr, r)) break;
  }
  r->tracer.on = false;
}

// Peak resident set of this process (VmHWM: unlike ru_maxrss it starts afresh
// at exec, so the launching process does not leak in) and of every child it
// has reaped (forked campaign workers, the serve daemon and its workers).
double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::strtod(line.c_str() + 6, nullptr);
  }
  rusage kids{};
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(self_kb, static_cast<double>(kids.ru_maxrss)) / 1024.0;
}

Value series_json(const std::vector<double>& xs) {
  Value a = Value::array();
  for (const double x : xs) a.push(Value::of_double(x));
  return a;
}

int usage() {
  std::fprintf(stderr,
               "usage: fgperf_driver --workload W --seed N --seconds S "
               "--trace 0|1 --campaign-spec FILE\n"
               "  W: hotloop_asan | hotloop_memstall | campaign_sweep | "
               "service_mix\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string campaign_path;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const std::string v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--campaign-spec") {
      campaign_path = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0) return usage();
  std::signal(SIGPIPE, SIG_IGN);

  Probes pr;
  Result r;
  if (workload == "hotloop_asan" || workload == "hotloop_memstall") {
    run_hotloop(workload == "hotloop_asan", seed, seconds, trace, pr.cpu, &r);
  } else if (workload == "campaign_sweep") {
    run_campaign(campaign_path, seed, seconds, trace, pr, &r);
  } else if (workload == "service_mix") {
    run_service(seed, seconds, trace, pr, &r);
  } else {
    return usage();
  }

  Value out = Value::object();
  out.set("workload", Value::of_str(workload));
  out.set("seed", Value::of(seed));
  out.set("attempted", Value::of(r.attempted));
  out.set("failed", Value::of(r.failed));
  Value errors = Value::array();
  for (const std::string& e : r.errors) errors.push(Value::of_str(e));
  out.set("errors", std::move(errors));
  Value series = Value::object();
  for (const auto& [k, v] : r.series) series.set(k, series_json(v));
  out.set("series", std::move(series));
  Value counters = Value::object();
  for (const auto& [k, v] : r.counters) counters.set(k, Value::of_double(v));
  out.set("counters", std::move(counters));
  Value sim = Value::object();
  sim.set("fireguard_cycles", Value::of(r.sim_cycles));
  sim.set("baseline_cycles", Value::of(r.base_cycles));
  sim.set("latency_ns", series_json(r.latency_ns));
  out.set("sim", std::move(sim));
  out.set("spans", r.tracer.to_json());
  out.set("peak_rss_mb", Value::of_double(peak_rss_mb()));
  Value build = Value::object();
  build.set("compiler", Value::of_str(__VERSION__));
  build.set("build_type", Value::of_str(FGPERF_BUILD_TYPE));
  build.set("lto", Value::of_str(FGPERF_LTO));
  out.set("build", std::move(build));
  std::printf("%s\n", json::dump(out).c_str());
  return r.failed == 0 ? 0 : 1;
}
