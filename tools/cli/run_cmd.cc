// `fgsim run`: run one declarative experiment and print a machine-readable
// "key value" summary (the historical CLI output format).
//
//   $ fgsim run --spec examples/table2.json
//   $ fgsim run --spec examples/table2.json --set trace_len=20000 --json out.json
//   $ fgsim run --kernel=asan --engines=4 --workload=x264        (legacy flags)
//   $ fgsim run --software=asan_x86 --workload=dedup
//
// Exit status (the cli.h contract): 2 on a configuration error, 3 when a
// file cannot be read or written, 1 when --attacks / the spec's attack plan
// goes undetected, 0 otherwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "tools/cli/cli.h"

namespace fg::cli {

namespace {

using namespace fg;

void usage() {
  std::puts(
      "fgsim run — run one experiment\n"
      "  --spec FILE         load an ExperimentSpec JSON file\n"
      "  --set KEY=VALUE     override a spec knob (repeatable; see `fgsim "
      "spec --keys`)\n"
      "  --json PATH         also write the structured outcome "
      "(metrics + snapshot) as JSON\n"
      "  --no-baseline       skip the unmonitored baseline run / slowdown\n"
      "Legacy flags (mapped onto the spec knobs):\n"
      "  --workload=NAME     parsec-like profile (blackscholes..x264)\n"
      "  --kernel=K          pmc | shadow | asan | uaf\n"
      "  --software=S        shadow_llvm | asan_aarch64 | asan_x86 | dangsan\n"
      "  --engines=N --ha --filter-width=N --mapper-width=N --policy=P\n"
      "  --model=M --attacks=N --trace-len=N --seed=N --stlf --detailed-mem");
}

/// kExitOk, or the exit code the caller should return (kExitIo for an
/// unreadable file, kExitUsage for malformed spec JSON).
int load_spec_file(const std::string& path, api::ExperimentSpec* spec) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fgsim run: cannot read spec file %s\n",
                 path.c_str());
    return kExitIo;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!api::spec_from_json(ss.str(), spec, &err)) {
    std::fprintf(stderr, "fgsim run: %s: %s\n", path.c_str(), err.c_str());
    return kExitUsage;
  }
  return kExitOk;
}

trace::AttackKind attack_for(kernels::KernelKind k) {
  switch (k) {
    case kernels::KernelKind::kPmc: return trace::AttackKind::kPcHijack;
    case kernels::KernelKind::kShadowStack: return trace::AttackKind::kRetCorrupt;
    case kernels::KernelKind::kAsan: return trace::AttackKind::kHeapOob;
    case kernels::KernelKind::kUaf: return trace::AttackKind::kUseAfterFree;
  }
  return trace::AttackKind::kHeapOob;
}

}  // namespace

int run_main(int argc, char** argv) {
  api::ExperimentSpec spec;
  bool spec_loaded = false;
  // (flag, value) pairs applied AFTER the spec file loads, in order.
  std::vector<std::pair<std::string, std::string>> sets;
  std::string json_out;
  bool with_baseline = true;
  u32 legacy_attacks = 0;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto eat = [&](const char* prefix, std::string* out) {
      const size_t n = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(n);
        return true;
      }
      return false;
    };
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim run: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    std::string v;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--spec") {
      if (const int rc = load_spec_file(next("--spec"), &spec)) return rc;
      spec_loaded = true;
    } else if (eat("--spec=", &v)) {
      if (const int rc = load_spec_file(v, &spec)) return rc;
      spec_loaded = true;
    } else if (arg == "--set") {
      v = next("--set");
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "fgsim run: --set expects KEY=VALUE, got %s\n",
                     v.c_str());
        return 2;
      }
      sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg == "--json") {
      json_out = next("--json");
    } else if (eat("--json=", &v)) {
      json_out = v;
    } else if (arg == "--no-baseline") {
      with_baseline = false;
    }
    // --- legacy flags, mapped onto the spec knobs ---
    else if (eat("--workload=", &v)) sets.emplace_back("workload", v);
    else if (eat("--kernel=", &v)) sets.emplace_back("kernel", v);
    else if (eat("--software=", &v)) sets.emplace_back("scheme", v);
    else if (eat("--engines=", &v)) sets.emplace_back("engines", v);
    else if (arg == "--ha") sets.emplace_back("ha", "true");
    else if (eat("--filter-width=", &v)) sets.emplace_back("filter_width", v);
    else if (eat("--mapper-width=", &v)) sets.emplace_back("mapper_width", v);
    else if (eat("--policy=", &v)) sets.emplace_back("policy", v);
    else if (eat("--model=", &v)) sets.emplace_back("model", v);
    else if (eat("--trace-len=", &v)) sets.emplace_back("trace_len", v);
    else if (eat("--seed=", &v)) sets.emplace_back("seed", v);
    else if (arg == "--stlf") sets.emplace_back("stlf", "true");
    else if (arg == "--detailed-mem") sets.emplace_back("detailed_mem", "true");
    else if (eat("--attacks=", &v)) {
      if (!parse_flag("run", "--attacks", v.c_str(), &legacy_attacks)) {
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "fgsim run: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (!spec_loaded) spec = api::default_spec();
  for (const auto& [key, value] : sets) {
    std::string err;
    if (!api::apply_set(&spec, key, value, &err)) {
      std::fprintf(stderr, "fgsim run: %s\n", err.c_str());
      return 2;
    }
  }
  // Legacy --attacks=N: N attacks of the kind the deployed kernel detects.
  // FireGuard mode only, exactly like the historical CLI (its
  // --software branch never consumed --attacks).
  if (legacy_attacks > 0 && spec.mode == api::Mode::kFireguard) {
    const kernels::KernelKind kind = spec.soc.kernels.empty()
                                         ? kernels::KernelKind::kAsan
                                         : spec.soc.kernels.front().kind;
    spec.workload.attacks = {{attack_for(kind), legacy_attacks}};
  }
  if (!spec.sweep.empty()) {
    std::fprintf(stderr,
                 "fgsim run: spec has sweep axes; use `fgsim sweep`\n");
    return 2;
  }

  api::SessionConfig cfg;
  cfg.jobs = 1;
  cfg.with_baseline = with_baseline && spec.mode != api::Mode::kBaseline;
  api::SimSession session(spec, cfg);
  const api::RunOutcome& r = session.run();

  // The historical "key value" summary.
  std::printf("workload %s\n", spec.workload.profile.name.c_str());
  std::printf("trace_len %llu\n",
              static_cast<unsigned long long>(spec.workload.n_insts));
  if (cfg.with_baseline) {
    std::printf("baseline_cycles %llu\n",
                static_cast<unsigned long long>(r.baseline_cycles));
  }
  switch (spec.mode) {
    case api::Mode::kBaseline:
      std::printf("mode baseline\n");
      break;
    case api::Mode::kSoftware:
      std::printf("mode software/%s\n", baseline::sw_scheme_name(spec.scheme));
      std::printf("expansion %.3f\n", r.result.expansion);
      break;
    case api::Mode::kFireguard: {
      std::string kernels_s;
      u32 engines = 0;
      bool ha = false;
      for (const soc::KernelDeployment& d : spec.soc.kernels) {
        if (!kernels_s.empty()) kernels_s += "+";
        kernels_s += kernels::kernel_name(d.kind);
        engines += d.use_ha ? 1 : d.n_engines;
        ha |= d.use_ha;
      }
      std::printf("mode fireguard/%s engines=%u%s\n", kernels_s.c_str(),
                  engines, ha ? " (HA)" : "");
      break;
    }
  }
  std::printf("cycles %llu\n",
              static_cast<unsigned long long>(r.result.cycles));
  if (cfg.with_baseline) std::printf("slowdown %.4f\n", r.slowdown);
  std::printf("ipc %.3f\n", r.result.ipc);
  // Unconditional like the historical CLI: software/baseline runs
  // print zeros, and output-parsing scripts keep finding every key.
  std::printf("packets %llu\n",
              static_cast<unsigned long long>(r.result.packets));
  static const char* kCause[] = {"none", "filter", "mapper", "cdc",
                                 "engines"};
  for (size_t i = 1; i < 5; ++i) {
    std::printf("stall_%s %.4f\n", kCause[i], r.result.stall_fractions[i]);
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "fgsim run: cannot write %s\n", json_out.c_str());
      return kExitIo;
    }
    out << api::outcome_json(r) << "\n";
  }

  if (spec.mode == api::Mode::kFireguard && r.result.planned_attacks > 0) {
    std::printf("attacks_planned %llu\n",
                static_cast<unsigned long long>(r.result.planned_attacks));
    std::printf("attacks_detected %zu\n", r.result.detections.size());
    double worst_ns = 0;
    for (const auto& d : r.result.detections) {
      worst_ns = d.latency_ns > worst_ns ? d.latency_ns : worst_ns;
    }
    std::printf("worst_latency_ns %.1f\n", worst_ns);
    if (r.result.detections.size() < r.result.planned_attacks) {
      std::fprintf(stderr, "MISSED %llu attacks\n",
                   static_cast<unsigned long long>(
                       r.result.planned_attacks - r.result.detections.size()));
      return 1;
    }
  }
  return 0;
}

}  // namespace fg::cli
