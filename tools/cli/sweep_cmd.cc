// `fgsim sweep`: expand a spec's sweep axes into the full cross-product
// grid and run it across worker threads, with live per-point progress.
//
//   $ fgsim sweep --spec examples/fig10_quick.json
//   $ fgsim sweep --spec grid.json --set trace_len=20000 --jobs=8 --json out.json
//
// Results are bit-identical regardless of --jobs (each point is a
// self-contained deterministic simulation; see src/api/session.h).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/common/stats.h"
#include "tools/cli/cli.h"

namespace fg::cli {

namespace {

void usage() {
  std::puts(
      "fgsim sweep — run a spec's sweep grid\n"
      "  --spec FILE         ExperimentSpec JSON with a \"sweep\" section\n"
      "  --set KEY=VALUE     override a knob before expansion (repeatable)\n"
      "  --jobs=N            worker threads (default FG_JOBS, else hw)\n"
      "  --json PATH         write all structured outcomes as a JSON array\n"
      "  --quiet             suppress per-point progress lines");
}

}  // namespace

int sweep_main(int argc, char** argv) {
  std::string spec_path;
  std::vector<std::pair<std::string, std::string>> sets;
  std::string json_out;
  u32 jobs = 0;
  bool quiet = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim sweep: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg == "--set") {
      const std::string v = next("--set");
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "fgsim sweep: --set expects KEY=VALUE\n");
        return 2;
      }
      sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_flag("sweep", "--jobs", arg.c_str() + 7, &jobs)) {
        return kExitUsage;
      }
    } else if (arg == "--json") {
      json_out = next("--json");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "fgsim sweep: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "fgsim sweep: --spec FILE is required\n");
    return 2;
  }

  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "fgsim sweep: cannot read %s\n", spec_path.c_str());
    return kExitIo;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  api::ExperimentSpec spec;
  std::string err;
  if (!api::spec_from_json(ss.str(), &spec, &err)) {
    std::fprintf(stderr, "fgsim sweep: %s: %s\n", spec_path.c_str(),
                 err.c_str());
    return 2;
  }
  for (const auto& [key, value] : sets) {
    if (!api::apply_set(&spec, key, value, &err)) {
      std::fprintf(stderr, "fgsim sweep: %s\n", err.c_str());
      return 2;
    }
  }
  // Validate the axes per-value (O(sum), not the cross product) so a bad
  // axis is a recoverable CLI error; SimSession's constructor, which
  // expands the real grid once, FG_CHECKs on invalid input.
  {
    api::ExperimentSpec scratch = spec;
    for (const api::SweepAxis& axis : spec.sweep) {
      if (axis.values.empty()) {
        std::fprintf(stderr, "fgsim sweep: sweep axis \"%s\" is empty\n",
                     axis.key.c_str());
        return 2;
      }
      for (const std::string& v : axis.values) {
        if (!api::apply_set(&scratch, axis.key, v, &err)) {
          std::fprintf(stderr, "fgsim sweep: %s\n", err.c_str());
          return 2;
        }
      }
    }
  }

  api::SessionConfig cfg;
  cfg.jobs = jobs;
  api::SimSession session(spec, cfg);
  std::printf("fgsim sweep: %zu points on %u workers\n", session.n_points(),
              session.workers());
  if (!quiet) {
    session.on_progress([](const api::Progress& p) {
      std::printf("  [%3zu/%zu] %-48s slowdown %6.3f  (%.0f ms)\n",
                  p.completed, p.total, p.outcome->name.c_str(),
                  p.outcome->slowdown, p.outcome->wall_ms);
      std::fflush(stdout);
    });
  }
  const std::vector<api::RunOutcome>& results = session.run_all();

  std::vector<double> slowdowns;
  for (const api::RunOutcome& r : results) {
    if (r.slowdown > 0.0) slowdowns.push_back(r.slowdown);
  }
  if (!slowdowns.empty()) {
    std::printf("geomean slowdown: %.3f over %zu points\n",
                geomean(slowdowns), slowdowns.size());
  }
  std::printf(
      "wall %.2f s; baseline cache: %llu hits, %llu misses, %llu in-flight "
      "waits\n",
      session.wall_ms() / 1000.0,
      static_cast<unsigned long long>(session.baseline_cache().hits()),
      static_cast<unsigned long long>(session.baseline_cache().misses()),
      static_cast<unsigned long long>(
          session.baseline_cache().inflight_waits()));

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "fgsim sweep: cannot write %s\n",
                   json_out.c_str());
      return kExitIo;
    }
    out << "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out << api::outcome_json(results[i]);
      out << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }
  return 0;
}

}  // namespace fg::cli
