// Figure 8: detection latency with 4 µcores per kernel.
//
// 50-100 attacks are injected per workload (hijacked jumps, corrupted
// returns, redzone accesses, quarantined-region accesses); the latency is
// the time from the attack instruction's commit to the guardian kernel's
// `detect`, in nanoseconds at the 3.2 GHz main-core clock.
//
// Paper shape to check: PMC < 50 ns everywhere; shadow stack slightly higher
// (worst ~220 ns on x264); ASan median < 200 ns with a > 2000 ns tail driven
// by TLB + cache miss pile-ups inside the engines; log-scale spread.
#include "bench_common.h"

namespace fgbench {
namespace {

struct Scenario {
  const char* series;
  kernels::KernelKind kind;
  trace::AttackKind attack;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"shadow", kernels::KernelKind::kShadowStack, trace::AttackKind::kRetCorrupt},
      {"sanitizer", kernels::KernelKind::kAsan, trace::AttackKind::kHeapOob},
      {"uaf", kernels::KernelKind::kUaf, trace::AttackKind::kUseAfterFree},
      {"pmc", kernels::KernelKind::kPmc, trace::AttackKind::kPcHijack},
  };
  return kScenarios;
}

void report_latency(benchmark::State& st, const api::RunOutcome& r) {
  SampleSet lat;
  for (const auto& d : r.result.detections) lat.add(d.latency_ns);
  st.counters["attacks"] = static_cast<double>(r.result.planned_attacks);
  st.counters["detected"] = static_cast<double>(r.result.detections.size());
  if (!lat.empty()) {
    st.counters["lat_min_ns"] = lat.min();
    st.counters["lat_med_ns"] = lat.percentile(50);
    st.counters["lat_p90_ns"] = lat.percentile(90);
    st.counters["lat_max_ns"] = lat.max();
  }
}

void register_all() {
  for (const Scenario& s : scenarios()) {
    for (const std::string& w : workloads()) {
      api::ExperimentSpec spec =
          make_spec(w, {{s.attack, soc::default_attack_count()}});
      spec.soc.kernels = {soc::deploy(s.kind, 4)};
      register_spec("fig08/" + std::string(s.series) + "/" + w, "", spec,
                    report_latency);
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  // No baselines: the figure plots latency, not overhead.
  return fgbench::sweep_main(argc, argv, "Figure 8 (detection latency)",
                             {.with_baseline = false});
}
