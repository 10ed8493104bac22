// Section IV-G (closing claim): energy overhead of FireGuard.
//
// Prints, for each Table III SoC's performance core, the per-core area
// overhead next to the modeled power overhead, plus the single-clock-domain
// counterfactual that shows what the two-domain split saves. Activity
// factors are derived from a measured FireGuard run (ASan on the ferret
// profile) rather than assumed.
#include "bench_common.h"

#include "src/area/energy_model.h"

namespace fgbench {
namespace {

void report_energy_rows(benchmark::State& st, const api::RunOutcome& pr) {
  const soc::RunResult& r = pr.result;
  const double packets_per_commit =
      r.committed > 0 ? static_cast<double>(r.packets) / (4.0 * r.committed)
                      : 0.3;
  // µcore duty: packets * per-packet work (~8 µcycles) over the slow cycles.
  const double slow_cycles = static_cast<double>(r.cycles) / 2.0;
  const double busy =
      slow_cycles > 0 ? 8.0 * static_cast<double>(r.packets) / 4.0 / slow_cycles
                      : 0.6;
  const area::ActivityFactors af =
      area::activity_from_run(r.ipc, 4, packets_per_commit, busy);
  const auto rows = area::table3_energy_rows(af);
  std::printf("\n%-12s %-14s %12s %12s %16s\n", "SoC", "Core", "area ovh %",
              "energy ovh %", "1-domain ovh %");
  for (const auto& row : rows) {
    std::printf("%-12s %-14s %12.2f %12.2f %16.2f\n", row.soc.c_str(),
                row.core.c_str(), row.area_overhead_pct, row.energy_overhead_pct,
                row.single_domain_pct);
    st.counters[row.soc + "_energy_pct"] = row.energy_overhead_pct;
  }
}

void register_all() {
  // One representative run to extract IPC, filtered-packet fraction and
  // µcore duty cycle.
  api::ExperimentSpec s = make_spec("ferret");
  s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  register_spec("table_energy/rows", "", s, report_energy_rows);
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv, nullptr, {.with_baseline = false});
}
