// Ablation (Section III-C, footnote 5): scalar vs. superscalar mapper.
//
// The paper's mapper is deliberately scalar — one packet per fast cycle —
// because that rarely impedes a 4-wide BOOM (<0.5% slowdown observed). For a
// wider or denser-commit core the footnote sketches a superscalar mapper
// with duplicated channels/SEs and per-engine arbiters. This ablation runs
// the heaviest kernel (AddressSanitizer, whose loads+stores approach commit
// bandwidth on x264/bodytrack/dedup) at mapper widths 1, 2 and 4, reporting
// the slowdown and the mapper-attributed stall fraction for each.
#include "bench_common.h"

namespace fgbench {
namespace {

void report_mapper_stall(benchmark::State& st, const api::RunOutcome& r) {
  st.counters["mapper_stall"] =
      r.result.stall_fractions[static_cast<size_t>(core::StallCause::kMapper)];
}

void register_all() {
  for (const u32 width : {1u, 2u, 4u}) {
    for (const std::string& w : workloads()) {
      api::ExperimentSpec s = make_spec(w);
      s.soc.frontend.mapper_width = width;
      s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
      register_spec(
          "ablation_mapper/sanitizer/w" + std::to_string(width) + "/" + w,
          "mapper_width=" + std::to_string(width), s, report_mapper_stall);
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv,
                             "Mapper-width ablation (ASan, 4 ucores)");
}
