// Ablation: flat post-LLC latency + constant TLB walks vs. the detailed
// bank/row DRAM model and real Sv39 page-table walks.
//
// The reproduction is calibrated on the flat model (Table II's "16 GB DDR3
// @1066MHz, max 32 requests" collapses to one constant). This ablation shows
// the detailed models move baseline IPC but leave FireGuard's *relative*
// slowdown essentially unchanged — the paper's conclusions do not hinge on
// memory-model fidelity, only on event rates vs. engine throughput.
//
// The shared BaselineCache keys on the memory-model knobs, so each mode gets
// its own baseline run (once, however many workload points share it).
#include "bench_common.h"

namespace fgbench {
namespace {

void report_base_ipc(benchmark::State& st, const api::RunOutcome& r) {
  st.counters["base_ipc"] = static_cast<double>(r.result.committed) /
                            static_cast<double>(std::max<fg::Cycle>(
                                1, r.baseline_cycles));
}

void register_all() {
  struct Mode {
    const char* name;
    bool dram;
    bool ptw;
  };
  for (const Mode m : {Mode{"flat", false, false}, Mode{"detailed_dram", true, false},
                       Mode{"detailed_dram_ptw", true, true}}) {
    for (const std::string& w : workloads()) {
      api::ExperimentSpec s = make_spec(w);
      s.soc.mem.detailed_dram = m.dram;
      s.soc.mem.detailed_ptw = m.ptw;
      s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
      register_spec("ablation_memory/" + std::string(m.name) + "/" + w,
                    m.name, s, report_base_ipc);
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv,
                             "Memory-model ablation (ASan, 4 ucores)");
}
