// fgsim: the unified FireGuard experiment CLI.
//
// One binary, one declarative surface: every subcommand consumes the
// serializable ExperimentSpec (src/api/spec.h) and drives the SimSession
// facade, so anything a user can write in a spec file is runnable,
// sweepable, and fuzz-comparable through the same code path.
//
//   fgsim run      --spec FILE [--set k=v ...] one experiment, key-value summary
//   fgsim sweep    --spec FILE [--jobs=N]      expand sweep axes, run the grid
//   fgsim campaign --spec FILE --store DIR     resumable sweep vs durable store
//   fgsim spec     [--spec FILE] [--set ...]   resolve + export a spec
//   fgsim fuzz     [--seeds N ...]             differential scenario fuzzer
//   fgsim speed    [--quick ...]               simulator-speed tracker
//   fgsim serve    --store DIR --socket PATH   batch daemon over the store
//   fgsim submit   --spec FILE [--wait]        send a spec to the daemon
//   fgsim jobs     [--cancel ID]               list/cancel daemon submissions
//   fgsim status   [--drain | --shutdown]      daemon counters and control
//   fgsim store    stats --store DIR           store audit + usage, no daemon
//
// Exit codes (see tools/cli/cli.h): 0 ok, 1 experiment failure, 2 usage,
// 3 I/O.
#include <cstdio>
#include <cstring>

#include "tools/cli/cli.h"

namespace {

void usage() {
  std::puts(
      "usage: fgsim <command> [options]\n"
      "  run       run one experiment from a spec file / --set overrides\n"
      "  sweep     expand a spec's sweep axes and run the whole grid\n"
      "  campaign  resumable sweep against a durable result store\n"
      "  spec      resolve and print a spec (--keys | --schema for tooling)\n"
      "  fuzz      differential scenario fuzzer + golden corpus maintainer\n"
      "  speed     simulator-speed tracker (BENCH_sim_speed.json)\n"
      "  serve     batch experiment daemon (durable store + Unix socket)\n"
      "  submit    send a spec to a running serve daemon\n"
      "  jobs      list or cancel a serve daemon's submissions\n"
      "  status    serve daemon counters (--drain / --shutdown)\n"
      "  store     inspect a result store (stats: audit, objects, bytes)\n"
      "Run `fgsim <command> --help` for per-command options.\n"
      "Exit codes: 0 ok, 1 experiment failure, 2 usage error, 3 I/O error.");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0 || std::strcmp(argv[1], "help") == 0) {
    usage();
    return argc < 2 ? 2 : 0;
  }
  const char* cmd = argv[1];
  const int sub_argc = argc - 2;
  char** sub_argv = argv + 2;
  if (std::strcmp(cmd, "run") == 0) return fg::cli::run_main(sub_argc, sub_argv);
  if (std::strcmp(cmd, "sweep") == 0) {
    return fg::cli::sweep_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "campaign") == 0) {
    return fg::cli::campaign_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "spec") == 0) {
    return fg::cli::spec_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "fuzz") == 0) {
    return fg::cli::fuzz_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "speed") == 0) {
    return fg::cli::speed_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "serve") == 0) {
    return fg::cli::serve_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "submit") == 0) {
    return fg::cli::submit_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "jobs") == 0) {
    return fg::cli::jobs_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "status") == 0) {
    return fg::cli::status_main(sub_argc, sub_argv);
  }
  if (std::strcmp(cmd, "store") == 0) {
    return fg::cli::store_main(sub_argc, sub_argv);
  }
  std::fprintf(stderr, "fgsim: unknown command '%s'\n", cmd);
  usage();
  return 2;
}
