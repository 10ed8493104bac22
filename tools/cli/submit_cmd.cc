// The client side of the fgsim serve daemon:
//
//   fgsim submit --spec FILE --socket PATH [--wait] [--json]
//       submit an experiment spec (sweep axes expand daemon-side into grid
//       points, deduplicated against the store and in-flight work). Without
//       --wait, prints the accepted submission id and returns immediately;
//       with --wait (implied by --json) blocks until every point resolves.
//   fgsim jobs [--socket PATH] [--json] [--cancel ID]
//       list the daemon's submissions (or cancel one).
//   fgsim status [--socket PATH] [--json] [--drain | --shutdown]
//       the daemon's observability surface: queue depth, per-worker state,
//       store hits vs executions, dedupe hits, retry/timeout counts.
//
// The socket defaults to $FG_SOCKET. Exit codes (the cli.h contract):
// 0 ok; 1 experiment failure (failed/cancelled points, daemon-side error);
// 2 usage/malformed spec; 3 daemon not running / socket I/O.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/spec.h"
#include "src/serve/client.h"
#include "tools/cli/cli.h"

namespace fg::cli {

namespace {

std::string default_socket(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("FG_SOCKET");
  return env != nullptr ? env : "";
}

#if !defined(_WIN32)
/// Connect or exit-3 diagnostics; false when the socket flag is missing
/// (usage) — *usage distinguishes the two for the caller's exit code.
bool connect_client(serve::Client* client, const std::string& socket_path,
                    const char* tool, bool* usage_error) {
  *usage_error = false;
  if (socket_path.empty()) {
    std::fprintf(stderr,
                 "fgsim %s: --socket PATH is required (or set FG_SOCKET)\n",
                 tool);
    *usage_error = true;
    return false;
  }
  std::string err;
  if (!client->connect(socket_path, &err)) {
    std::fprintf(stderr, "fgsim %s: %s\n", tool, err.c_str());
    return false;
  }
  return true;
}
#endif

}  // namespace

int submit_main(int argc, char** argv) {
  std::string spec_path, socket_path, name;
  std::vector<std::pair<std::string, std::string>> sets;
  bool wait = false, as_json = false, with_baseline = true;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim submit: %s needs a value\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::puts(
          "fgsim submit — send an experiment spec to a running daemon\n"
          "  --spec FILE       ExperimentSpec JSON (sweep axes expand "
          "daemon-side)\n"
          "  --socket PATH     daemon socket (default: $FG_SOCKET)\n"
          "  --set KEY=VALUE   override a knob before submitting "
          "(repeatable)\n"
          "  --name NAME       label for `fgsim jobs` (default: spec name)\n"
          "  --wait            block until every point resolves\n"
          "  --json            print the final response JSON (implies "
          "--wait, attaches results)\n"
          "  --no-baseline     skip the unmonitored baseline / slowdown");
      return kExitOk;
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg == "--socket") {
      socket_path = next("--socket");
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg == "--set") {
      const std::string v = next("--set");
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "fgsim submit: --set expects KEY=VALUE\n");
        return kExitUsage;
      }
      sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg == "--name") {
      name = next("--name");
    } else if (arg.rfind("--name=", 0) == 0) {
      name = arg.substr(7);
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--json") {
      as_json = true;
      wait = true;
    } else if (arg == "--no-baseline") {
      with_baseline = false;
    } else {
      std::fprintf(stderr, "fgsim submit: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return kExitUsage;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "fgsim submit: --spec FILE is required\n");
    return kExitUsage;
  }
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "fgsim submit: cannot read %s\n", spec_path.c_str());
    return kExitIo;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  api::ExperimentSpec spec;
  std::string err;
  if (!api::spec_from_json(ss.str(), &spec, &err)) {
    std::fprintf(stderr, "fgsim submit: %s: %s\n", spec_path.c_str(),
                 err.c_str());
    return kExitUsage;
  }
  for (const auto& [key, value] : sets) {
    if (!api::apply_set(&spec, key, value, &err)) {
      std::fprintf(stderr, "fgsim submit: %s\n", err.c_str());
      return kExitUsage;
    }
  }

#if defined(_WIN32)
  std::fprintf(stderr, "fgsim submit: not supported on this platform\n");
  return kExitIo;
#else
  serve::Client client;
  bool usage_error = false;
  if (!connect_client(&client, default_socket(socket_path), "submit",
                      &usage_error)) {
    return usage_error ? kExitUsage : kExitIo;
  }
  json::Value resp;
  if (!client.call(
          serve::submit_request(spec, wait, /*want_results=*/as_json,
                                with_baseline, name),
          &resp, &err)) {
    std::fprintf(stderr, "fgsim submit: %s\n", err.c_str());
    return kExitIo;
  }
  if (!resp.get_bool("ok")) {
    std::fprintf(stderr, "fgsim submit: daemon: %s\n",
                 resp.get_str("error").c_str());
    return kExitFailure;
  }
  if (as_json) {
    std::printf("%s\n", json::dump(resp, 2).c_str());
  } else {
    std::printf(
        "submission %llu (%s): %llu points, %llu from store, %llu deduped"
        "%s\n",
        static_cast<unsigned long long>(resp.get_u64("id")),
        resp.get_str("name").c_str(),
        static_cast<unsigned long long>(resp.get_u64("points")),
        static_cast<unsigned long long>(resp.get_u64("from_store")),
        static_cast<unsigned long long>(resp.get_u64("deduped")),
        resp.get_bool("complete") ? " — complete" : (wait ? "" : " — queued"));
  }
  if (resp.get_bool("cancelled")) {
    std::fprintf(stderr, "fgsim submit: submission was cancelled\n");
    return kExitFailure;
  }
  if (wait && resp.get_u64("failed") > 0) {
    std::fprintf(stderr, "fgsim submit: %llu of %llu points failed\n",
                 static_cast<unsigned long long>(resp.get_u64("failed")),
                 static_cast<unsigned long long>(resp.get_u64("points")));
    return kExitFailure;
  }
  return kExitOk;
#endif
}

int jobs_main(int argc, char** argv) {
  std::string socket_path;
  bool as_json = false;
  u64 cancel_id = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::puts(
          "fgsim jobs — list (or cancel) a serve daemon's submissions\n"
          "  --socket PATH     daemon socket (default: $FG_SOCKET)\n"
          "  --json            print the raw response JSON\n"
          "  --cancel=ID       cancel a submission's pending points");
      return kExitOk;
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg.rfind("--cancel=", 0) == 0) {
      if (!parse_flag("jobs", "--cancel", arg.c_str() + 9, &cancel_id)) {
        return kExitUsage;
      }
      if (cancel_id == 0) {
        std::fprintf(stderr, "fgsim jobs: --cancel expects a submission id\n");
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "fgsim jobs: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return kExitUsage;
    }
  }
#if defined(_WIN32)
  std::fprintf(stderr, "fgsim jobs: not supported on this platform\n");
  return kExitIo;
#else
  serve::Client client;
  bool usage_error = false;
  if (!connect_client(&client, default_socket(socket_path), "jobs",
                      &usage_error)) {
    return usage_error ? kExitUsage : kExitIo;
  }
  std::string err;
  json::Value resp;
  const std::string req = cancel_id != 0 ? serve::cancel_request(cancel_id)
                                         : serve::simple_request("status");
  if (!client.call(req, &resp, &err)) {
    std::fprintf(stderr, "fgsim jobs: %s\n", err.c_str());
    return kExitIo;
  }
  if (!resp.get_bool("ok")) {
    std::fprintf(stderr, "fgsim jobs: daemon: %s\n",
                 resp.get_str("error").c_str());
    return kExitFailure;
  }
  if (as_json) {
    std::printf("%s\n", json::dump(resp, 2).c_str());
    return kExitOk;
  }
  if (cancel_id != 0) {
    std::printf("cancelled submission %llu (%llu pending points dropped)\n",
                static_cast<unsigned long long>(cancel_id),
                static_cast<unsigned long long>(
                    resp.get_u64("cancelled_pending")));
    return kExitOk;
  }
  const json::Value* jobs = resp.get("jobs");
  if (jobs == nullptr || jobs->arr.empty()) {
    std::puts("no submissions");
    return kExitOk;
  }
  std::printf("%-6s %-24s %8s %8s %8s %8s %8s %s\n", "id", "name", "points",
              "done", "failed", "store", "deduped", "state");
  for (const json::Value& j : jobs->arr) {
    const char* state = j.get_bool("cancelled")  ? "cancelled"
                        : j.get_bool("complete") ? "complete"
                                                 : "running";
    std::printf("%-6llu %-24s %8llu %8llu %8llu %8llu %8llu %s%s\n",
                static_cast<unsigned long long>(j.get_u64("id")),
                j.get_str("name").c_str(),
                static_cast<unsigned long long>(j.get_u64("points")),
                static_cast<unsigned long long>(j.get_u64("done")),
                static_cast<unsigned long long>(j.get_u64("failed")),
                static_cast<unsigned long long>(j.get_u64("from_store")),
                static_cast<unsigned long long>(j.get_u64("deduped")), state,
                j.get_bool("replayed") ? " (replayed)" : "");
  }
  return kExitOk;
#endif
}

int status_main(int argc, char** argv) {
  std::string socket_path;
  bool as_json = false;
  const char* kind = "stats";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::puts(
          "fgsim status — a serve daemon's live counters\n"
          "  --socket PATH     daemon socket (default: $FG_SOCKET)\n"
          "  --json            print the raw response JSON\n"
          "  --drain           stop accepting work; return once the backlog "
          "is empty\n"
          "  --shutdown        stop the daemon (journaled submissions resume "
          "on restart)");
      return kExitOk;
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--drain") {
      kind = "drain";
    } else if (arg == "--shutdown") {
      kind = "shutdown";
    } else {
      std::fprintf(stderr, "fgsim status: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return kExitUsage;
    }
  }
#if defined(_WIN32)
  std::fprintf(stderr, "fgsim status: not supported on this platform\n");
  return kExitIo;
#else
  serve::Client client;
  bool usage_error = false;
  if (!connect_client(&client, default_socket(socket_path), "status",
                      &usage_error)) {
    return usage_error ? kExitUsage : kExitIo;
  }
  std::string err;
  json::Value resp;
  if (!client.call(serve::simple_request(kind), &resp, &err)) {
    std::fprintf(stderr, "fgsim status: %s\n", err.c_str());
    return kExitIo;
  }
  if (!resp.get_bool("ok")) {
    std::fprintf(stderr, "fgsim status: daemon: %s\n",
                 resp.get_str("error").c_str());
    return kExitFailure;
  }
  if (as_json) {
    std::printf("%s\n", json::dump(resp, 2).c_str());
    return kExitOk;
  }
  if (std::strcmp(kind, "drain") == 0) {
    std::puts("drained: backlog empty");
    return kExitOk;
  }
  if (std::strcmp(kind, "shutdown") == 0) {
    std::puts("daemon shutting down");
    return kExitOk;
  }
  const json::Value* st = resp.get("stats");
  if (st == nullptr) {
    std::fprintf(stderr, "fgsim status: malformed stats response\n");
    return kExitFailure;
  }
  std::printf(
      "submissions: %llu accepted, %llu completed, %llu cancelled, %llu "
      "replayed\n"
      "points:      %llu submitted = %llu store hits + %llu dedupe hits + "
      "%llu executed + %llu failed + %llu cancelled + %llu in flight\n"
      "retries:     %llu (%llu timeouts); steals: %llu\n"
      "queue:       depth %llu, running %llu%s\n",
      static_cast<unsigned long long>(st->get_u64("submissions_accepted")),
      static_cast<unsigned long long>(st->get_u64("submissions_completed")),
      static_cast<unsigned long long>(st->get_u64("submissions_cancelled")),
      static_cast<unsigned long long>(st->get_u64("submissions_replayed")),
      static_cast<unsigned long long>(st->get_u64("points_submitted")),
      static_cast<unsigned long long>(st->get_u64("store_hits")),
      static_cast<unsigned long long>(st->get_u64("dedupe_hits")),
      static_cast<unsigned long long>(st->get_u64("executed")),
      static_cast<unsigned long long>(st->get_u64("failed_points")),
      static_cast<unsigned long long>(st->get_u64("cancelled_points")),
      static_cast<unsigned long long>(
          st->get_u64("queue_depth") + st->get_u64("running")),
      static_cast<unsigned long long>(st->get_u64("retries")),
      static_cast<unsigned long long>(st->get_u64("timeouts")),
      static_cast<unsigned long long>(st->get_u64("steals")),
      static_cast<unsigned long long>(st->get_u64("queue_depth")),
      static_cast<unsigned long long>(st->get_u64("running")),
      resp.get_bool("draining") ? " (draining)" : "");
  const json::Value* workers = resp.get("workers");
  if (workers != nullptr) {
    for (size_t i = 0; i < workers->arr.size(); ++i) {
      const json::Value& w = workers->arr[i];
      if (w.get_str("state") == "running") {
        std::printf("worker %zu: running sub %llu\n", i,
                    static_cast<unsigned long long>(w.get_u64("sub")));
      } else {
        std::printf("worker %zu: idle\n", i);
      }
    }
  }
  return kExitOk;
#endif
}

}  // namespace fg::cli
