#include "src/soc/figures.h"

namespace fg::soc {

const std::vector<std::string>& paper_workloads() {
  static const std::vector<std::string> kNames = {
      "blackscholes", "bodytrack",     "dedup",     "ferret", "fluidanimate",
      "freqmine",     "streamcluster", "swaptions", "x264"};
  return kNames;
}

trace::WorkloadConfig paper_workload(
    const std::string& name, u64 n_insts,
    std::vector<std::pair<trace::AttackKind, u32>> attacks) {
  trace::WorkloadConfig wl;
  wl.profile = trace::profile_by_name(name);
  wl.seed = 42;
  wl.n_insts = n_insts;
  wl.warmup_insts = n_insts / 10;
  wl.attacks = std::move(attacks);
  return wl;
}

}  // namespace fg::soc
