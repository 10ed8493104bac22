// The paper's workload set and figure sweep grids, defined once so the
// bench binaries and `fgsim speed` enumerate the SAME points — a grid
// tuned in one place cannot silently drift from the speed trajectory that
// claims to track it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/soc/sweep.h"

namespace fg::soc {

/// The nine PARSEC-like profiles, in the order the figures list them.
const std::vector<std::string>& paper_workloads();

/// The benches' standard workload configuration: fixed seed 42, warmup =
/// one tenth of the trace, plus an optional attack plan.
trace::WorkloadConfig paper_workload(
    const std::string& name, u64 n_insts,
    std::vector<std::pair<trace::AttackKind, u32>> attacks = {});

/// Figure 10 grid: slowdown vs. µcore count for all four guardian kernels
/// (PMC / shadow stack over {2,4,6}; ASan / UaF over {2,4,6,8,10,12}), all
/// nine workloads — 162 points. `quick` shrinks it to PMC+ASan at {2,4}
/// (36 points) for CI-sized runs. Point names/series match
/// bench_fig10_scalability.
std::vector<SweepPoint> fig10_points(u64 n_insts, bool quick = false);

}  // namespace fg::soc
