// Differential scenario fuzzer + golden-corpus maintainer.
//
// Modes (combinable; golden modes run after the fuzz pass when both given):
//   fgsim fuzz --seeds N        run N seeded scenarios, each simulated under
//                               the cycle-exact reference AND the default
//                               event-driven scheduler; the two stat
//                               snapshots must be bit-identical and no
//                               FG_INVARIANT may fire (Debug builds).
//   fgsim fuzz --seed S         run exactly one seed (verbose).
//   fgsim fuzz --update-golden  rewrite tests/golden/*.json from the fixed
//                               corpus seeds (review + commit the diff).
//   fgsim fuzz --check-golden   re-simulate the corpus and diff against the
//                               checked-in snapshots.
//
// Failure handling: a mismatching seed is shrunk by trace-length bisection
// and reported with a one-line repro command; with --artifacts DIR each
// failure also writes a JSON artifact (seed, full scenario, stat diff) so a
// red CI run is reproducible from the artifact alone.
//
// Flags:
//   --seeds N          number of seeds (default 64)
//   --seed S           single seed (hex 0x.. or decimal); implies --seeds 1
//   --seed-base B      first seed for --seeds runs (default 1)
//   --trace-len N      scenario envelope max trace length (default 12000)
//   --min-trace-len N  scenario envelope min trace length (default 2000)
//   --force-len N      pin every scenario's trace length (shrunk repros)
//   --no-shrink        disable trace-length bisection on failure
//   --artifacts DIR    write per-failure artifact JSONs into DIR
//   --golden-dir DIR   golden corpus location (default tests/golden)
//   --check            exit non-zero on any failure (fuzz or golden)
//   -v                 per-seed scenario summaries
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/cli/cli.h"

#include "src/common/invariant.h"
#include "src/testing/difffuzz.h"
#include "src/testing/golden.h"

namespace {

fg::u64 parse_u64(const char* s) {
  return std::strtoull(s, nullptr, 0);  // base 0: accepts 0x.. and decimal
}

}  // namespace

namespace fg::cli {

int fuzz_main(int argc, char** argv) {

  fuzz::FuzzOptions opt;
  opt.seeds = 64;
  opt.env.max_insts = 12'000;
  bool update_golden = false;
  bool check_golden = false;
  bool check = false;
  std::string golden_dir = "tests/golden";
  bool single_seed = false;
  bool seeds_requested = false;

  for (int i = 0; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim fuzz: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      opt.seeds = parse_u64(next("--seeds"));
      seeds_requested = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed_base = parse_u64(next("--seed"));
      opt.seeds = 1;
      single_seed = true;
      seeds_requested = true;
    } else if (std::strcmp(argv[i], "--seed-base") == 0) {
      opt.seed_base = parse_u64(next("--seed-base"));
    } else if (std::strcmp(argv[i], "--trace-len") == 0) {
      opt.env.max_insts = parse_u64(next("--trace-len"));
    } else if (std::strcmp(argv[i], "--min-trace-len") == 0) {
      opt.env.min_insts = parse_u64(next("--min-trace-len"));
    } else if (std::strcmp(argv[i], "--force-len") == 0) {
      opt.force_len = parse_u64(next("--force-len"));
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      opt.shrink = false;
    } else if (std::strcmp(argv[i], "--artifacts") == 0) {
      opt.artifact_dir = next("--artifacts");
    } else if (std::strcmp(argv[i], "--golden-dir") == 0) {
      golden_dir = next("--golden-dir");
    } else if (std::strcmp(argv[i], "--update-golden") == 0) {
      update_golden = true;
    } else if (std::strcmp(argv[i], "--check-golden") == 0) {
      check_golden = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "-v") == 0) {
      opt.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: fgsim fuzz [--seeds N] [--seed S] [--seed-base B] "
                   "[--trace-len N] [--min-trace-len N] [--force-len N] "
                   "[--no-shrink] [--artifacts DIR] [--golden-dir DIR] "
                   "[--update-golden] [--check-golden] [--check] [-v]\n");
      return 2;
    }
  }
  if (opt.env.min_insts > opt.env.max_insts) {
    opt.env.min_insts = opt.env.max_insts;
  }
  if (single_seed) opt.verbose = true;
  // A golden-only invocation skips the fuzz pass; an explicit --seeds/--seed
  // combines with the golden modes (the golden passes run after it).
  const bool run_fuzz_pass =
      seeds_requested || (!update_golden && !check_golden);

  int failures = 0;

  if (run_fuzz_pass) {
    if (!fg::inv::compiled_in()) {
      std::printf(
          "fgsim fuzz: invariants compiled out (Release) — differential "
          "snapshot check only\n");
    }
    const fuzz::FuzzReport report = fuzz::run_fuzz(opt);
    std::printf(
        "fgsim fuzz: %llu seeds (base %llu, trace %llu..%llu): "
        "%llu event-vs-exact mismatches, %llu invariant violations\n",
        static_cast<unsigned long long>(report.seeds_run),
        static_cast<unsigned long long>(opt.seed_base),
        static_cast<unsigned long long>(opt.env.min_insts),
        static_cast<unsigned long long>(opt.env.max_insts),
        static_cast<unsigned long long>(report.mismatches),
        static_cast<unsigned long long>(report.invariant_violations));
    for (const fuzz::FuzzFailure& f : report.failures) {
      std::printf("\nFAIL seed 0x%llx [%s] %s\n",
                  static_cast<unsigned long long>(f.seed), f.kind.c_str(),
                  f.summary.c_str());
      if (f.shrunk_len != f.trace_len) {
        std::printf("  shrunk: trace %llu -> %llu insts\n",
                    static_cast<unsigned long long>(f.trace_len),
                    static_cast<unsigned long long>(f.shrunk_len));
      }
      std::printf("  repro: %s\n", f.repro.c_str());
      if (!f.artifact_path.empty()) {
        std::printf("  artifact: %s\n", f.artifact_path.c_str());
      }
      std::printf("%s", f.diff.c_str());
      ++failures;
    }
  }

  if (update_golden) {
    const std::string err = fuzz::update_golden(golden_dir);
    if (!err.empty()) {
      std::fprintf(stderr, "fgsim fuzz --update-golden: %s\n", err.c_str());
      ++failures;
    } else {
      std::printf("fgsim fuzz: wrote %zu golden snapshots to %s\n",
                  fuzz::golden_entries().size(), golden_dir.c_str());
    }
  }

  if (check_golden) {
    const std::string report = fuzz::check_golden(golden_dir);
    if (!report.empty()) {
      std::printf("fgsim fuzz --check-golden FAILURES:\n%s", report.c_str());
      ++failures;
    } else {
      std::printf("fgsim fuzz: golden corpus OK (%zu snapshots in %s)\n",
                  fuzz::golden_entries().size(), golden_dir.c_str());
    }
  }

  // Failures always exit non-zero; --check is accepted for symmetry with
  // the repro lines and the other tools' CI-gate spelling.
  (void)check;
  return failures != 0 ? 1 : 0;
}

}  // namespace fg::cli
