// Ablation (Section III-C): Scheduling-Engine policies.
//
// Block mode exists for message locality (the shadow stack's pipelined
// parallelism); round-robin spreads stateless checks; fixed pins a kernel to
// one engine. This ablation shows each kernel under each policy.
#include "bench_common.h"

namespace fgbench {
namespace {

void report_detections(benchmark::State& st, const api::RunOutcome& r) {
  st.counters["detected"] = static_cast<double>(r.result.detections.size());
  st.counters["attacks"] = static_cast<double>(r.result.planned_attacks);
}

void register_all() {
  struct K {
    const char* name;
    kernels::KernelKind kind;
    trace::AttackKind attack;
  };
  for (const K k :
       {K{"shadow", kernels::KernelKind::kShadowStack, trace::AttackKind::kRetCorrupt},
        K{"sanitizer", kernels::KernelKind::kAsan, trace::AttackKind::kHeapOob}}) {
    for (core::SchedPolicy pol :
         {core::SchedPolicy::kFixed, core::SchedPolicy::kRoundRobin,
          core::SchedPolicy::kBlock}) {
      // The shadow stack's state token only works under block mode; other
      // policies on SS are included to show why block mode is required
      // (detection coverage drops along with locality).
      for (const std::string& w : workloads()) {
        api::ExperimentSpec s = make_spec(w, {{k.attack, 20}});
        // deploy()'s policy parameter keeps (policy, policy_overridden)
        // consistent — no more hand-set flag pairs.
        s.soc.kernels = {soc::deploy(k.kind, 4, kernels::ProgModel::kHybrid,
                                     false, pol)};
        register_spec("ablation_policies/" + std::string(k.name) + "/" +
                          core::sched_policy_name(pol) + "/" + w,
                      std::string(k.name) + "/" + core::sched_policy_name(pol),
                      s, report_detections);
      }
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv, "Scheduling-policy ablation");
}
