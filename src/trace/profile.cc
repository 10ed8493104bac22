#include "src/trace/profile.h"

#include "src/common/check.h"

namespace fg::trace {

namespace {

std::vector<WorkloadProfile> build_profiles() {
  std::vector<WorkloadProfile> v;

  {  // blackscholes: small, FP-dominated, very predictable, few allocations.
    WorkloadProfile p;
    p.name = "blackscholes";
    p.f_load = 0.15; p.f_store = 0.045; p.f_fp = 0.31; p.f_muldiv = 0.015;
    p.f_branch = 0.09; p.f_call = 0.008; p.f_hard_branch = 0.04;
    p.ptr_chase = 0.05;
    p.n_funcs = 48; p.blocks_per_func = 5; p.block_len = 10;
    p.loop_frac = 0.35; p.mean_trips = 24.0;
    p.m_stack = 0.34; p.m_global = 0.22; p.m_heap = 0.28; p.m_stream = 0.16;
    p.stream_revisit = 0.6; p.stream_footprint = 64u << 10; p.global_hot_words = 256;
    p.allocs_per_kinst = 0.05; p.mean_alloc_size = 192; p.live_target = 24;
    v.push_back(p);
  }
  {  // bodytrack: vision workload, moderate mem traffic, branchy.
    WorkloadProfile p;
    p.name = "bodytrack";
    p.f_load = 0.21; p.f_store = 0.09; p.f_fp = 0.12; p.f_muldiv = 0.02;
    p.f_branch = 0.145; p.f_call = 0.018; p.f_hard_branch = 0.14;
    p.ptr_chase = 0.15;
    p.n_funcs = 160; p.blocks_per_func = 7; p.block_len = 7;
    p.loop_frac = 0.30; p.mean_trips = 10.0;
    p.m_stack = 0.28; p.m_global = 0.18; p.m_heap = 0.38; p.m_stream = 0.16;
    p.stream_revisit = 0.5; p.stream_footprint = 128u << 10; p.global_hot_words = 768;
    p.allocs_per_kinst = 1.6; p.mean_alloc_size = 384; p.live_target = 96;
    v.push_back(p);
  }
  {  // dedup: pipeline compression, allocation-heavy (the paper's UaF outlier).
    WorkloadProfile p;
    p.name = "dedup";
    p.f_load = 0.24; p.f_store = 0.155; p.f_fp = 0.01; p.f_muldiv = 0.025;
    p.f_branch = 0.135; p.f_call = 0.024; p.f_hard_branch = 0.16;
    p.ptr_chase = 0.3;
    p.n_funcs = 192; p.blocks_per_func = 6; p.block_len = 7;
    p.loop_frac = 0.28; p.mean_trips = 9.0;
    p.m_stack = 0.24; p.m_global = 0.14; p.m_heap = 0.44; p.m_stream = 0.18;
    p.stream_revisit = 0.35; p.stream_footprint = 256u << 10; p.global_hot_words = 1024;
    p.allocs_per_kinst = 6.5; p.mean_alloc_size = 1536; p.live_target = 128;
    v.push_back(p);
  }
  {  // ferret: similarity search pipeline, mixed behaviour.
    WorkloadProfile p;
    p.name = "ferret";
    p.f_load = 0.22; p.f_store = 0.075; p.f_fp = 0.105; p.f_muldiv = 0.02;
    p.f_branch = 0.13; p.f_call = 0.02; p.f_hard_branch = 0.12;
    p.ptr_chase = 0.2;
    p.n_funcs = 224; p.blocks_per_func = 6; p.block_len = 8;
    p.loop_frac = 0.30; p.mean_trips = 11.0;
    p.m_stack = 0.27; p.m_global = 0.17; p.m_heap = 0.40; p.m_stream = 0.16;
    p.stream_revisit = 0.55; p.stream_footprint = 96u << 10; p.global_hot_words = 768;
    p.allocs_per_kinst = 2.2; p.mean_alloc_size = 512; p.live_target = 64;
    v.push_back(p);
  }
  {  // fluidanimate: particle simulation, FP + irregular heap walks.
    WorkloadProfile p;
    p.name = "fluidanimate";
    p.f_load = 0.23; p.f_store = 0.095; p.f_fp = 0.185; p.f_muldiv = 0.012;
    p.f_branch = 0.11; p.f_call = 0.012; p.f_hard_branch = 0.10;
    p.ptr_chase = 0.25;
    p.n_funcs = 96; p.blocks_per_func = 6; p.block_len = 9;
    p.loop_frac = 0.36; p.mean_trips = 14.0;
    p.m_stack = 0.20; p.m_global = 0.14; p.m_heap = 0.50; p.m_stream = 0.16;
    p.stream_revisit = 0.55; p.stream_footprint = 128u << 10; p.global_hot_words = 512;
    p.allocs_per_kinst = 0.5; p.mean_alloc_size = 768; p.live_target = 72;
    v.push_back(p);
  }
  {  // freqmine: itemset mining, pointer-chasing and hard branches.
    WorkloadProfile p;
    p.name = "freqmine";
    p.f_load = 0.24; p.f_store = 0.085; p.f_fp = 0.015; p.f_muldiv = 0.015;
    p.f_branch = 0.165; p.f_call = 0.016; p.f_hard_branch = 0.20;
    p.ptr_chase = 0.55;
    p.n_funcs = 176; p.blocks_per_func = 7; p.block_len = 6;
    p.loop_frac = 0.32; p.mean_trips = 8.0;
    p.m_stack = 0.22; p.m_global = 0.16; p.m_heap = 0.48; p.m_stream = 0.14;
    p.stream_revisit = 0.5; p.stream_footprint = 96u << 10; p.global_hot_words = 1024;
    p.allocs_per_kinst = 2.8; p.mean_alloc_size = 320; p.live_target = 96;
    v.push_back(p);
  }
  {  // streamcluster: streaming kmeans, load-dominated sequential sweeps.
    WorkloadProfile p;
    p.name = "streamcluster";
    p.f_load = 0.28; p.f_store = 0.05; p.f_fp = 0.13; p.f_muldiv = 0.01;
    p.f_branch = 0.105; p.f_call = 0.008; p.f_hard_branch = 0.06;
    p.ptr_chase = 0.06;
    p.n_funcs = 64; p.blocks_per_func = 5; p.block_len = 9;
    p.loop_frac = 0.40; p.mean_trips = 28.0;
    p.m_stack = 0.14; p.m_global = 0.12; p.m_heap = 0.22; p.m_stream = 0.52;
    p.stream_revisit = 0.45; p.stream_footprint = 192u << 10; p.global_hot_words = 256;
    p.allocs_per_kinst = 0.3; p.mean_alloc_size = 2048; p.live_target = 32;
    v.push_back(p);
  }
  {  // swaptions: Monte-Carlo pricing, FP heavy and quiet.
    WorkloadProfile p;
    p.name = "swaptions";
    p.f_load = 0.15; p.f_store = 0.045; p.f_fp = 0.275; p.f_muldiv = 0.02;
    p.f_branch = 0.09; p.f_call = 0.010; p.f_hard_branch = 0.05;
    p.ptr_chase = 0.05;
    p.n_funcs = 56; p.blocks_per_func = 5; p.block_len = 10;
    p.loop_frac = 0.34; p.mean_trips = 20.0;
    p.m_stack = 0.36; p.m_global = 0.20; p.m_heap = 0.30; p.m_stream = 0.14;
    p.stream_revisit = 0.6; p.stream_footprint = 64u << 10; p.global_hot_words = 384;
    p.allocs_per_kinst = 0.8; p.mean_alloc_size = 256; p.live_target = 48;
    v.push_back(p);
  }
  {  // x264: video encode — the paper's load/store monster. Highest memory
     // event rate; this is the workload where four µcores cannot keep up with
     // AddressSanitizer and where even 12 µcores leave a 1.59x slowdown.
    WorkloadProfile p;
    p.name = "x264";
    p.f_load = 0.38; p.f_store = 0.20; p.f_fp = 0.01; p.f_muldiv = 0.01;
    p.f_branch = 0.07; p.f_call = 0.008; p.f_hard_branch = 0.03;
    p.ptr_chase = 0.03;
    p.n_funcs = 208; p.blocks_per_func = 6; p.block_len = 4;
    p.loop_frac = 0.42; p.mean_trips = 32.0;
    p.m_stack = 0.14; p.m_global = 0.12; p.m_heap = 0.24; p.m_stream = 0.50;
    p.stream_revisit = 0.9; p.stream_footprint = 24u << 10; p.global_hot_words = 512;
    p.allocs_per_kinst = 1.2; p.mean_alloc_size = 1024; p.live_target = 256;
    v.push_back(p);
  }

  {  // memstall: not a PARSEC profile — a deliberately memory/stall-bound
     // torture case for the event scheduler (serialized pointer chasing over
     // a live heap far larger than the warmable window, almost no control
     // flow so the analysis engines stay quiet). IPC ~0.05 with the detailed
     // DRAM/PTW models: nearly every cycle is provably-dead miss latency,
     // which is exactly what the wide-horizon skip paths must convert into
     // wall-clock speedup (fgsim speed's memstall hot loop and the
     // stall-bound golden scenarios both draw this by name).
    WorkloadProfile p;
    p.name = "memstall";
    p.f_load = 0.50; p.f_store = 0.04; p.f_fp = 0.02; p.f_muldiv = 0.0;
    p.f_branch = 0.01; p.f_call = 0.0005; p.f_hard_branch = 0.05;
    p.ptr_chase = 1.0;
    p.n_funcs = 48; p.blocks_per_func = 5; p.block_len = 12;
    p.loop_frac = 0.35; p.mean_trips = 24.0;
    p.m_stack = 0.05; p.m_global = 0.05; p.m_heap = 0.85; p.m_stream = 0.05;
    p.stream_revisit = 0.0; p.stream_footprint = 64u << 20; p.global_hot_words = 256;
    p.allocs_per_kinst = 10.0; p.mean_alloc_size = 65536; p.live_target = 65536;
    v.push_back(p);
  }

  for (const auto& p : v) {
    const double mem_sum = p.m_stack + p.m_global + p.m_heap + p.m_stream;
    FG_CHECK(mem_sum > 0.99 && mem_sum < 1.01);
    FG_CHECK(p.f_load + p.f_store + p.f_fp + p.f_branch + p.f_call < 0.95);
  }
  return v;
}

}  // namespace

const std::vector<WorkloadProfile>& parsec_profiles() {
  static const std::vector<WorkloadProfile> kProfiles = build_profiles();
  return kProfiles;
}

const WorkloadProfile* find_profile(const std::string& name) {
  for (const auto& p : parsec_profiles()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const WorkloadProfile& profile_by_name(const std::string& name) {
  const WorkloadProfile* p = find_profile(name);
  FG_CHECK(p != nullptr && "unknown workload profile");
  return *p;
}

}  // namespace fg::trace
