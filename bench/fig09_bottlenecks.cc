// Figure 9: cumulative microarchitectural bottlenecks vs. event-filter width
// (AddressSanitizer on 4 µcores, filter width 1 / 2 / 4).
//
// Every refused commit lane is attributed to the deepest full component:
// filter (width limit or FIFO), the scalar mapper, the CDC, or the engines'
// message queues — the categories of the paper's stacked plot.
//
// Paper shape to check: a 4-wide filter keeps up with the 4-wide core (its
// own contribution ~0); narrowing to 2 adds ~16% filter-attributed overhead
// and to 1 adds ~34%.
#include "bench_common.h"

namespace fgbench {
namespace {

void report_stalls(benchmark::State& st, const api::RunOutcome& r) {
  st.counters["stall_filter"] =
      r.result.stall_fractions[static_cast<size_t>(core::StallCause::kFilter)];
  st.counters["stall_mapper"] =
      r.result.stall_fractions[static_cast<size_t>(core::StallCause::kMapper)];
  st.counters["stall_cdc"] =
      r.result.stall_fractions[static_cast<size_t>(core::StallCause::kCdc)];
  st.counters["stall_engines"] =
      r.result.stall_fractions[static_cast<size_t>(core::StallCause::kEngines)];
}

void register_all() {
  for (u32 width : {4u, 2u, 1u}) {
    for (const std::string& w : workloads()) {
      api::ExperimentSpec s = make_spec(w);
      s.soc.frontend.filter.width = width;
      s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
      register_spec("fig09/width" + std::to_string(width) + "/" + w,
                    "width" + std::to_string(width), s, report_stalls);
    }
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv, "Figure 9 (slowdown by filter width)");
}
