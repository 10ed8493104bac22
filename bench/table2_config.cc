// Table II: the evaluated hardware configuration. Prints the library's
// defaults so a reader can diff them against the paper, and runs one short
// reference simulation as a sanity benchmark (its reported time is the
// point's real wall clock from the sweep).
#include "bench_common.h"

namespace fgbench {
namespace {

void print_config() {
  const soc::SocConfig sc = soc::table2_soc();
  std::printf("=== Table II: hardware configuration ===\n");
  std::printf("Main core        : %u-wide OoO @ %.1f GHz\n", sc.core.commit_width,
              sc.fast_ghz);
  std::printf("Pipeline         : %u-entry ROB, %u-entry IQ, %u-entry LDQ/STQ, "
              "%u phys regs\n",
              sc.core.rob_entries, sc.core.iq_entries, sc.core.ldq_entries,
              sc.core.phys_regs);
  std::printf("Func units       : %u int ALU, %u FP/mul/div, %u mem, %u jump, "
              "%u CSR\n",
              sc.core.n_int_alu, sc.core.n_fp, sc.core.n_mem, sc.core.n_jmp,
              sc.core.n_csr);
  std::printf("Branch predictor : TAGE %u tables (%u-%u bit hist), %u-entry BTB, "
              "%u-entry RAS\n",
              sc.core.predictor.tage_tables, sc.core.predictor.min_history,
              sc.core.predictor.max_history, sc.core.predictor.btb_entries,
              sc.core.predictor.ras_entries);
  std::printf("L1I / L1D        : %u KB %u-way, %u MSHRs each\n",
              sc.mem.l1i.size_bytes / 1024, sc.mem.l1i.ways, sc.mem.l1i.mshrs);
  std::printf("L2 / LLC         : %u KB / %u MB, %u-way, DRAM ~%u cycles\n",
              sc.mem.l2.size_bytes / 1024, sc.mem.llc.size_bytes / 1024 / 1024,
              sc.mem.l2.ways, sc.mem.dram_latency);
  std::printf("Event filter     : %u-wide, %u-entry FIFOs\n",
              sc.frontend.filter.width, sc.frontend.filter.fifo_depth);
  std::printf("Mapper           : %u-entry CDC, fabric @ %.1f GHz (ratio %u)\n",
              sc.frontend.cdc_depth, sc.fast_ghz / sc.frontend.freq_ratio,
              sc.frontend.freq_ratio);
  std::printf("Analysis engine  : in-order 5-stage @ %.1f GHz, %u-entry message "
              "queues, %u KB I/D caches\n",
              sc.fast_ghz / sc.frontend.freq_ratio, sc.ucore.msgq_depth,
              sc.ucore.dcache.size_bytes / 1024);
}

void register_all() {
  api::ExperimentSpec s = make_spec("blackscholes");
  s.workload.n_insts = 30000;
  s.workload.warmup_insts = s.workload.n_insts / 10;
  s.soc.kernels = {soc::deploy(kernels::KernelKind::kPmc, 4)};
  register_spec("table2/reference_run", "", s,
                [](benchmark::State& st, const api::RunOutcome& r) {
                  st.counters["ipc"] = r.result.ipc;
                });
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  fgbench::print_config();
  fgbench::register_all();
  return fgbench::sweep_main(argc, argv, nullptr, {.with_baseline = false});
}
