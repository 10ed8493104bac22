// `fgsim campaign`: run a sweep grid against a durable content-addressed
// result store. Crash-safe and resumable: kill the process at any instant
// (Ctrl-C, SIGKILL, power cut) and rerunning the same command serves every
// already-published point from the store and simulates only the rest — the
// final result set is bit-identical to an uninterrupted run.
//
//   $ fgsim campaign --spec grid.json --store runs/grid
//   $ fgsim campaign --spec grid.json --store runs/grid --json out.json
//   $ fgsim campaign --store runs/grid --audit        # validate every entry
//
// Per-point robustness: points run in long-lived forked workers, one per
// job slot (a crash or hang costs one attempt and that worker, not the
// campaign), a --timeout watchdog SIGKILLs hung points, and failed attempts retry with exponential backoff up to
// --max-attempts. See src/api/campaign.h for the full contract and
// src/store/faultfs.h (FG_FAULT) for the fault-injection harness that
// tests it.
//
// Exit codes (the cli.h contract): 0 all points resolved; 1 at least one
// failed point or audit finding; 2 usage/malformed spec; 3 unusable store
// or unwritable output.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/campaign.h"
#include "src/common/stats.h"
#include "tools/cli/cli.h"

namespace fg::cli {

namespace {

void usage() {
  std::puts(
      "fgsim campaign — resumable sweep against a durable result store\n"
      "  --spec FILE         ExperimentSpec JSON (usually with sweep axes)\n"
      "  --store DIR         result store directory (created if absent)\n"
      "  --set KEY=VALUE     override a knob before expansion (repeatable)\n"
      "  --jobs=N            concurrent points (default FG_JOBS, else hw)\n"
      "  --max-attempts=N    attempts per point before it counts as failed "
      "(default 3)\n"
      "  --timeout=SECS      per-point wall-clock watchdog (default off)\n"
      "  --backoff-ms=N      base retry backoff, doubled per attempt "
      "(default 50)\n"
      "  --in-process        worker threads instead of long-lived forked "
      "workers (no crash/hang isolation)\n"
      "  --no-baseline       skip the unmonitored baseline / slowdown\n"
      "  --json PATH         write all stored outcomes as a JSON array\n"
      "  --quiet             suppress per-point progress lines\n"
      "  --audit             validate every store entry (checksums, "
      "addresses), then exit");
}

}  // namespace

int campaign_main(int argc, char** argv) {
  std::string spec_path;
  std::string json_out;
  std::vector<std::pair<std::string, std::string>> sets;
  api::CampaignConfig cfg;
  bool quiet = false;
  bool audit = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim campaign: %s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return kExitOk;
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg == "--store") {
      cfg.store_dir = next("--store");
    } else if (arg.rfind("--store=", 0) == 0) {
      cfg.store_dir = arg.substr(8);
    } else if (arg == "--set") {
      const std::string v = next("--set");
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "fgsim campaign: --set expects KEY=VALUE\n");
        return kExitUsage;
      }
      sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_flag("campaign", "--jobs", arg.c_str() + 7, &cfg.jobs)) {
        return kExitUsage;
      }
    } else if (arg.rfind("--max-attempts=", 0) == 0) {
      if (!parse_flag("campaign", "--max-attempts", arg.c_str() + 15,
                      &cfg.max_attempts)) {
        return kExitUsage;
      }
      if (cfg.max_attempts == 0) {
        std::fprintf(stderr, "fgsim campaign: --max-attempts must be >= 1\n");
        return kExitUsage;
      }
    } else if (arg.rfind("--timeout=", 0) == 0) {
      cfg.point_timeout_s = std::strtod(arg.c_str() + 10, nullptr);
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      if (!parse_flag("campaign", "--backoff-ms", arg.c_str() + 13,
                      &cfg.backoff_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--in-process") {
      cfg.isolate = false;
    } else if (arg == "--no-baseline") {
      cfg.with_baseline = false;
    } else if (arg == "--json") {
      json_out = next("--json");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--audit") {
      audit = true;
    } else {
      std::fprintf(stderr,
                   "fgsim campaign: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return kExitUsage;
    }
  }

  if (cfg.store_dir.empty()) {
    std::fprintf(stderr, "fgsim campaign: --store DIR is required\n");
    return kExitUsage;
  }

  if (audit) {
    store::ResultStore store;
    std::string err;
    if (!store.open(cfg.store_dir, &err)) {
      std::fprintf(stderr, "fgsim campaign: %s\n", err.c_str());
      return kExitIo;
    }
    store::ResultStore::AuditReport report;
    if (!store.audit(&report, &err)) {
      std::fprintf(stderr, "fgsim campaign: %s\n", err.c_str());
      return kExitIo;
    }
    std::printf(
        "store audit: %llu entries, %llu ok, %llu quarantined\n",
        static_cast<unsigned long long>(report.entries),
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.quarantined));
    if (report.quarantined > 0) {
      std::fprintf(stderr,
                   "fgsim campaign: audit quarantined %llu corrupt "
                   "entries (see %s)\n",
                   static_cast<unsigned long long>(report.quarantined),
                   store.quarantine_dir().c_str());
      return kExitFailure;
    }
    return kExitOk;
  }

  if (spec_path.empty()) {
    std::fprintf(stderr, "fgsim campaign: --spec FILE is required\n");
    return kExitUsage;
  }
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "fgsim campaign: cannot read %s\n",
                 spec_path.c_str());
    return kExitIo;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  api::ExperimentSpec spec;
  std::string err;
  if (!api::spec_from_json(ss.str(), &spec, &err)) {
    std::fprintf(stderr, "fgsim campaign: %s: %s\n", spec_path.c_str(),
                 err.c_str());
    return kExitUsage;
  }
  for (const auto& [key, value] : sets) {
    if (!api::apply_set(&spec, key, value, &err)) {
      std::fprintf(stderr, "fgsim campaign: %s\n", err.c_str());
      return kExitUsage;
    }
  }

  api::CampaignRunner runner(std::move(spec), cfg);
  if (!runner.init(&err)) {
    // Grid expansion failures are spec errors; everything else init does is
    // store/journal I/O.
    const bool spec_error = err.find("sweep") != std::string::npos ||
                            err.find("axis") != std::string::npos;
    std::fprintf(stderr, "fgsim campaign: %s\n", err.c_str());
    return spec_error ? kExitUsage : kExitIo;
  }
  std::printf("fgsim campaign: %zu points on %u %s, store %s\n",
              runner.points().size(), runner.workers(),
              cfg.isolate ? "isolated workers" : "threads",
              cfg.store_dir.c_str());
  if (!quiet) {
    runner.on_event([](const api::CampaignRunner::Event& ev) {
      std::printf("  [%3zu/%zu] point %-4u %s%s\n", ev.completed, ev.total,
                  ev.index, ev.what,
                  ev.attempt > 0 ? (" (attempt " + std::to_string(ev.attempt + 1) + ")").c_str()
                                 : "");
      std::fflush(stdout);
    });
  }
  if (!runner.run(&err)) {
    std::fprintf(stderr, "fgsim campaign: %s\n", err.c_str());
    return kExitIo;
  }

  const api::CampaignStats& st = runner.stats();
  std::printf(
      "campaign done: %zu points — %zu from store, %zu executed, %zu "
      "retries, %zu timeouts, %zu failed, %zu deduped\n",
      st.points, st.from_store, st.executed, st.retries, st.timeouts,
      st.failed, st.deduped);

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "fgsim campaign: cannot write %s\n",
                   json_out.c_str());
      return kExitIo;
    }
    const std::vector<std::string>& payloads = runner.payloads();
    out << "[\n";
    bool first = true;
    for (const std::string& p : payloads) {
      if (p.empty()) continue;  // failed points export nothing
      if (!first) out << ",\n";
      out << p;
      first = false;
    }
    out << "\n]\n";
  }

  if (st.failed > 0) {
    std::fprintf(stderr, "fgsim campaign: %zu of %zu points failed\n",
                 st.failed, st.points);
    return kExitFailure;
  }
  return kExitOk;
}

}  // namespace fg::cli
