// Ablation: store-to-load forwarding in the main core's LSQ.
//
// The reproduction's calibrated core model ships with forwarding off; this
// ablation quantifies what the feature changes — baseline IPC rises on
// store-heavy profiles, and FireGuard's *relative* slowdown stays put, which
// is why the calibration tolerates either setting (slowdown is a ratio of
// two runs that both gain).
//
// The shared BaselineCache keys on the forwarding knob, so each setting gets
// its own baseline run.
#include "bench_common.h"

namespace fgbench {
namespace {

void report_base_cycles(benchmark::State& st, const api::RunOutcome& r) {
  st.counters["base_cycles"] = static_cast<double>(r.baseline_cycles);
}

void register_all() {
  for (const bool stlf : {false, true}) {
    const char* tag = stlf ? "stlf_on" : "stlf_off";
    for (const std::string& w : workloads()) {
      api::ExperimentSpec s = make_spec(w);
      s.soc.core.store_load_forwarding = stlf;
      s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
      register_spec("ablation_stlf/" + std::string(tag) + "/" + w, tag, s,
                    report_base_cycles);
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(
      argc, argv, "Store-to-load-forwarding ablation (ASan, 4 ucores)");
}
