// The paper's workload set and the benches' standard workload
// configuration, shared by the bench binaries, the api layer's figure grids
// and the fgperf driver.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/soc/experiment.h"

namespace fg::soc {

/// The nine PARSEC-like profiles, in the order the figures list them.
const std::vector<std::string>& paper_workloads();

/// The benches' standard workload configuration: fixed seed 42, warmup =
/// one tenth of the trace, plus an optional attack plan.
trace::WorkloadConfig paper_workload(
    const std::string& name, u64 n_insts,
    std::vector<std::pair<trace::AttackKind, u32>> attacks = {});

}  // namespace fg::soc
