// `fgsim serve`: the batch experiment daemon — one process owning a durable
// result store and a Unix-domain socket, executing submitted experiment
// specs on a pool of forked workers with store dedupe, in-flight dedupe,
// work stealing, watchdog, and bounded retry (src/serve/daemon.h has the
// full contract).
//
//   $ fgsim serve --store runs/fleet --socket /tmp/fgsim.sock --workers 4
//
// The daemon runs in the foreground (backgrounding is the shell's job:
// `fgsim serve ... &`). SIGINT/SIGTERM stop it cleanly: in-flight children
// are killed, journaled submissions stay on disk, and the next `fgsim
// serve` with the same store resumes them. Exit codes: 0 clean stop, 2
// usage, 3 store/socket I/O failure (including another live daemon on the
// same socket).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/serve/daemon.h"
#include "tools/cli/cli.h"

#if !defined(_WIN32)
#include <signal.h>
#endif

namespace fg::cli {

namespace {

void usage() {
  std::puts(
      "fgsim serve — batch experiment daemon over a durable result store\n"
      "  --store DIR         result store directory (created if absent)\n"
      "  --socket PATH       Unix-domain socket to listen on\n"
      "  --workers=N         forked worker slots (default FG_JOBS, else hw; "
      "capped at hw)\n"
      "  --max-attempts=N    attempts per point before it counts as failed "
      "(default 3)\n"
      "  --timeout=SECS      per-point wall-clock watchdog (default off)\n"
      "  --backoff-ms=N      base retry backoff, doubled per attempt "
      "(default 50)\n"
      "  --quiet             suppress per-point progress lines\n"
      "Submit work with `fgsim submit --spec FILE --socket PATH`; inspect "
      "with\n`fgsim jobs` / `fgsim status`.");
}

#if !defined(_WIN32)
serve::ServeDaemon* g_daemon = nullptr;

void on_stop_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}
#endif

}  // namespace

int serve_main(int argc, char** argv) {
  serve::ServeConfig cfg;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim serve: %s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return kExitOk;
    } else if (arg == "--store") {
      cfg.store_dir = next("--store");
    } else if (arg.rfind("--store=", 0) == 0) {
      cfg.store_dir = arg.substr(8);
    } else if (arg == "--socket") {
      cfg.socket_path = next("--socket");
    } else if (arg.rfind("--socket=", 0) == 0) {
      cfg.socket_path = arg.substr(9);
    } else if (arg == "--workers" || arg.rfind("--workers=", 0) == 0) {
      const char* v = arg[9] == '=' ? arg.c_str() + 10 : next("--workers");
      if (!parse_flag("serve", "--workers", v, &cfg.workers)) {
        return kExitUsage;
      }
    } else if (arg == "--max-attempts" ||
               arg.rfind("--max-attempts=", 0) == 0) {
      const char* v = arg[14] == '=' ? arg.c_str() + 15 : next("--max-attempts");
      if (!parse_flag("serve", "--max-attempts", v, &cfg.max_attempts)) {
        return kExitUsage;
      }
      if (cfg.max_attempts == 0) {
        std::fprintf(stderr, "fgsim serve: --max-attempts must be >= 1\n");
        return kExitUsage;
      }
    } else if (arg == "--timeout") {
      cfg.point_timeout_s = std::strtod(next("--timeout"), nullptr);
    } else if (arg.rfind("--timeout=", 0) == 0) {
      cfg.point_timeout_s = std::strtod(arg.c_str() + 10, nullptr);
    } else if (arg == "--backoff-ms" ||
               arg.rfind("--backoff-ms=", 0) == 0) {
      const char* v = arg[12] == '=' ? arg.c_str() + 13 : next("--backoff-ms");
      if (!parse_flag("serve", "--backoff-ms", v, &cfg.backoff_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--quiet") {
      cfg.quiet = true;
    } else {
      std::fprintf(stderr, "fgsim serve: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return kExitUsage;
    }
  }
  if (cfg.store_dir.empty() || cfg.socket_path.empty()) {
    std::fprintf(stderr,
                 "fgsim serve: --store DIR and --socket PATH are required\n");
    return kExitUsage;
  }

#if defined(_WIN32)
  std::fprintf(stderr,
               "fgsim serve: not supported on this platform (needs Unix "
               "sockets and fork)\n");
  return kExitIo;
#else
  serve::ServeDaemon daemon(std::move(cfg));
  std::string err;
  if (!daemon.init(&err)) {
    std::fprintf(stderr, "fgsim serve: %s\n", err.c_str());
    return kExitIo;
  }
  g_daemon = &daemon;
  ::signal(SIGINT, on_stop_signal);
  ::signal(SIGTERM, on_stop_signal);
  ::signal(SIGPIPE, SIG_IGN);
  const bool ok = daemon.run(&err);
  g_daemon = nullptr;
  if (!ok) {
    std::fprintf(stderr, "fgsim serve: %s\n", err.c_str());
    return kExitIo;
  }
  return kExitOk;
#endif
}

}  // namespace fg::cli
