#include "src/testing/difffuzz.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/invariant.h"
#include "src/common/simctl.h"
#include "src/common/json.h"

namespace fg::fuzz {

namespace {

/// Restores the scheduler mode and the invariant abort policy on scope exit
/// (a fuzz run must not leave the process in record mode).
struct FuzzModeGuard {
  bool entry_exact;
  bool entry_abort;
  FuzzModeGuard() : entry_exact(cycle_exact()), entry_abort(inv::abort_on_violation()) {
    inv::set_abort_on_violation(false);
  }
  ~FuzzModeGuard() {
    set_cycle_exact(entry_exact);
    inv::set_abort_on_violation(entry_abort);
  }
};

std::string repro_line(const FuzzOptions& opt, u64 seed, u64 forced_len) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fgsim fuzz --seed 0x%llx --min-trace-len %llu --trace-len %llu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(opt.env.min_insts),
                static_cast<unsigned long long>(opt.env.max_insts));
  std::string out = buf;
  if (forced_len != 0) {
    std::snprintf(buf, sizeof(buf), " --force-len %llu",
                  static_cast<unsigned long long>(forced_len));
    out += buf;
  }
  return out + " --check";
}

std::string write_artifact(const FuzzOptions& opt, const FuzzFailure& f,
                           const Scenario& s) {
  if (opt.artifact_dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(opt.artifact_dir, ec);
  char name[64];
  std::snprintf(name, sizeof(name), "fgfuzz_fail_0x%016llx.json",
                static_cast<unsigned long long>(f.seed));
  const std::string path = opt.artifact_dir + "/" + name;
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n";
  out << "  \"schema\": \"fireguard/fgfuzz_failure/v1\",\n";
  out << "  \"kind\": \"" << f.kind << "\",\n";
  out << "  \"repro\": \"" << json::escape(f.repro) << "\",\n";
  out << "  \"trace_len\": " << f.trace_len << ",\n";
  out << "  \"shrunk_len\": " << f.shrunk_len << ",\n";
  out << "  \"scenario\":\n" << scenario_json(s, 2) << ",\n";
  out << "  \"diff\": \"" << json::escape(f.diff) << "\"\n";
  out << "}\n";
  return path;
}

}  // namespace

Scenario with_trace_len(Scenario s, u64 len) {
  s.wl().n_insts = len;
  if (s.wl().warmup_insts > len / 5) s.wl().warmup_insts = len / 5;
  return s;
}

FuzzReport run_fuzz(const FuzzOptions& opt, const ScenarioRunner& runner_in) {
  const ScenarioRunner runner =
      runner_in ? runner_in : run_scenario_snapshot_in_mode;
  FuzzModeGuard guard;
  FuzzReport report;

  // One seed's verdict: runs both modes, returns the failure diff ("" = ok)
  // and accumulates invariant messages.
  auto check_scenario = [&](const Scenario& s, std::string* inv_msgs) {
    // Fresh counters and message ring per scenario: a violation-heavy early
    // seed must not saturate the ring and leave later failures' artifacts
    // without the invariant names.
    inv::reset_counters();
    const api::StatSnapshot exact = runner(s, true);
    const api::StatSnapshot event = runner(s, false);
    if (inv_msgs != nullptr && inv::violations() != 0) {
      for (const std::string& m : inv::recent_violations()) {
        *inv_msgs += m + "\n";
      }
    }
    return api::snapshots_equal(exact, event)
               ? std::string{}
               : api::snapshot_diff(exact, event, "exact", "event");
  };

  for (u64 i = 0; i < opt.seeds; ++i) {
    const u64 seed = opt.seed_base + i;
    Scenario s = scenario_from_seed(seed, opt.env);
    if (opt.force_len != 0) s = with_trace_len(s, opt.force_len);
    if (opt.verbose) {
      std::printf("fgsim fuzz seed %llu: %s\n",
                  static_cast<unsigned long long>(seed),
                  scenario_summary(s).c_str());
    }
    std::string inv_msgs;
    std::string diff = check_scenario(s, &inv_msgs);
    // check_scenario resets the counters on entry, so a nonzero count here
    // belongs to THIS scenario's two runs.
    const bool invariant_failed = inv::violations() != 0;
    ++report.seeds_run;
    if (diff.empty() && !invariant_failed) continue;

    FuzzFailure f;
    f.seed = seed;
    f.kind = diff.empty() ? "invariant" : "event_vs_exact";
    f.summary = scenario_summary(s);
    f.trace_len = s.wl().n_insts;
    f.shrunk_len = s.wl().n_insts;
    if (!diff.empty()) {
      ++report.mismatches;
    } else {
      ++report.invariant_violations;
    }

    // Shrink by trace-length bisection: find the smallest length that still
    // mismatches. Mismatch is not guaranteed monotone in length, so this is
    // a best-effort minimizer (standard fuzzing practice), biased low.
    if (opt.shrink && !diff.empty() && s.wl().n_insts > opt.env.min_insts) {
      u64 lo = opt.env.min_insts;  // not known to fail
      u64 hi = s.wl().n_insts;       // known to fail
      std::string hi_diff = diff;
      const std::string lo_diff = check_scenario(with_trace_len(s, lo), nullptr);
      if (lo_diff.empty()) {
        while (lo + 1 < hi) {
          const u64 mid = lo + (hi - lo) / 2;
          const std::string d = check_scenario(with_trace_len(s, mid), nullptr);
          if (d.empty()) {
            lo = mid;
          } else {
            hi = mid;
            hi_diff = d;
          }
        }
      } else {
        // Even the envelope minimum fails; that IS the shrunk case.
        hi = lo;
        hi_diff = lo_diff;
      }
      if (hi < f.shrunk_len) {
        f.shrunk_len = hi;
        diff = hi_diff;
      }
    }
    f.diff = diff.empty() ? inv_msgs : diff;
    f.repro = repro_line(opt, seed,
                         f.shrunk_len != f.trace_len ? f.shrunk_len
                         : opt.force_len != 0        ? opt.force_len
                                                     : 0);
    f.artifact_path =
        write_artifact(opt, f, f.shrunk_len != f.trace_len
                                   ? with_trace_len(s, f.shrunk_len)
                                   : s);
    report.failures.push_back(std::move(f));
    if (opt.stop_on_first) break;
  }
  return report;
}

}  // namespace fg::fuzz
