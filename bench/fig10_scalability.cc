// Figure 10: slowdown vs. number of µcores, for all four guardian kernels.
//
// PMC and shadow stack sweep {2, 4, 6} engines (the paper's x-range for the
// light kernels); ASan and UaF sweep {2, 4, 6, 8, 10, 12}.
//
// The grid itself lives in src/api/spec.cc (fig10_points), shared with
// `fgsim speed` so its parallel-vs-serial audit covers the real grid.
//
// Paper shape to check: PMC 2µ=1.20 -> 4µ=1.02 (x264 lags) -> 6µ all <1.05;
// SS 2µ=1.073 -> 4µ=1.021 -> 6µ=1.004; ASan heavy (2µ=1.86, bodytrack /
// dedup / x264 above 2x, x264 still 1.59 at 12µ); UaF heaviest with a flat,
// non-parallelizable dedup component (12µ geomean ~1.16x in the paper).
#include "bench_common.h"

namespace fgbench {
namespace {

void register_all() {
  // Same grid `fgsim speed` audits. Names are
  // "fig10/<series>/<workload>"; the series is the middle part.
  for (api::GridPoint& p : api::fig10_points(soc::default_trace_len())) {
    const size_t lo = p.name.find('/') + 1;
    std::string series = p.name.substr(lo, p.name.rfind('/') - lo);
    register_spec(std::move(p.name), std::move(series), std::move(p.spec));
  }
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv, "Figure 10 (scalability)");
}
