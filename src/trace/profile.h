// Workload profiles.
//
// The paper evaluates PARSEC (simmedium) on FPGA-hosted Linux; we cannot run
// PARSEC, so each benchmark is replaced by a synthetic profile calibrated to
// its published instruction-mix and memory-behaviour characteristics (Bienia
// et al., PACT'08, plus the properties the FireGuard paper itself calls out:
// x264's extreme load/store volume, dedup's allocation-heavy behaviour,
// blackscholes/swaptions being quiet FP codes). The profile numbers determine
// each guardian kernel's *event rate*, which is what drives every overhead
// figure in the paper.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace fg::trace {

struct WorkloadProfile {
  std::string name;

  // Dynamic instruction-mix targets (fractions of all committed instructions;
  // remainder is integer ALU plus unconditional jumps).
  double f_load = 0.25;
  double f_store = 0.10;
  double f_fp = 0.05;
  double f_muldiv = 0.02;
  double f_branch = 0.12;
  double f_call = 0.01;  // calls (an equal number of returns is implied)

  // Branch behaviour: fraction of static conditional branches that are
  // data-dependent / hard to predict (bias drawn near 0.5).
  double f_hard_branch = 0.10;

  // Static code shape.
  int n_funcs = 96;
  int blocks_per_func = 6;
  int block_len = 8;        // mean body instructions per block
  double loop_frac = 0.30;  // fraction of blocks that are loop heads
  double mean_trips = 12.0; // mean loop trip count

  /// Fraction of heap/stream accesses whose base address depends on a
  /// recently produced value (pointer chasing). The rest use induction-
  /// variable bases, which is what gives streaming codes their memory-level
  /// parallelism.
  double ptr_chase = 0.10;

  // Memory-region mix for loads/stores (must sum to 1).
  double m_stack = 0.30;
  double m_global = 0.20;
  double m_heap = 0.35;
  double m_stream = 0.15;
  u64 stream_footprint = 1ull << 20;  // bytes
  /// Probability a stream access revisits the recent 2KB window instead of
  /// advancing (video codecs re-read reference windows heavily; pure
  /// streaming kernels never do).
  double stream_revisit = 0.0;
  u32 global_hot_words = 512;

  // Heap behaviour.
  double allocs_per_kinst = 1.0;  // dynamic allocations per 1000 instructions
  u32 mean_alloc_size = 256;      // bytes
  u32 live_target = 256;          // steady-state live allocation count
};

/// The nine PARSEC-like profiles evaluated in the paper, in the order the
/// figures list them: blackscholes, bodytrack, dedup, ferret, fluidanimate,
/// freqmine, streamcluster, swaptions, x264 — plus the synthetic
/// memory/stall-bound "memstall" torture profile (not part of the paper's
/// figure grids; see soc::paper_workloads() for the figures' name list).
const std::vector<WorkloadProfile>& parsec_profiles();

/// Look up one profile by name; nullptr if no library profile has it.
const WorkloadProfile* find_profile(const std::string& name);

/// Look up one profile by name (aborts if unknown).
const WorkloadProfile& profile_by_name(const std::string& name);

}  // namespace fg::trace
