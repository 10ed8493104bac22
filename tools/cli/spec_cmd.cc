// `fgsim spec`: resolve and export a declarative ExperimentSpec.
//
//   $ fgsim spec                                  # the default (quickstart) spec
//   $ fgsim spec --set kernel=pmc --set engines=6 # resolved spec with overrides
//   $ fgsim spec --spec my.json --set seed=7      # file + overrides, re-exported
//   $ fgsim spec --keys                           # the --set knob reference
//   $ fgsim spec --schema                         # flattened JSON schema keys
//
// The export is complete and exact: feeding it back through `fgsim run
// --spec` reproduces the identical experiment bit for bit. --schema is the
// docs drift gate's input: every key must appear in docs/API.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "tools/cli/cli.h"

namespace fg::cli {

int spec_main(int argc, char** argv) {
  std::string spec_path;
  std::vector<std::pair<std::string, std::string>> sets;
  bool schema = false;
  bool keys = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fgsim spec: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::puts(
          "fgsim spec — resolve and print an ExperimentSpec\n"
          "  --spec FILE / --set KEY=VALUE   as in `fgsim run`\n"
          "  --keys                          list the --set knobs\n"
          "  --schema                        list the flattened JSON schema");
      return 0;
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg.rfind("--spec=", 0) == 0) {
      spec_path = arg.substr(7);
    } else if (arg == "--set") {
      const std::string v = next("--set");
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "fgsim spec: --set expects KEY=VALUE\n");
        return 2;
      }
      sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (arg == "--schema") {
      schema = true;
    } else if (arg == "--keys") {
      keys = true;
    } else {
      std::fprintf(stderr, "fgsim spec: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (keys) {
    for (const api::SetKnob& k : api::settable_keys()) {
      std::printf("%-20s %s\n", k.key.c_str(), k.help.c_str());
    }
    return 0;
  }
  if (schema) {
    for (const std::string& key : api::spec_schema_keys()) {
      std::puts(key.c_str());
    }
    return 0;
  }

  api::ExperimentSpec spec = api::default_spec();
  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "fgsim spec: cannot read %s\n", spec_path.c_str());
      return kExitIo;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!api::spec_from_json(ss.str(), &spec, &err)) {
      std::fprintf(stderr, "fgsim spec: %s: %s\n", spec_path.c_str(),
                   err.c_str());
      return 2;
    }
  }
  for (const auto& [key, value] : sets) {
    std::string err;
    if (!api::apply_set(&spec, key, value, &err)) {
      std::fprintf(stderr, "fgsim spec: %s\n", err.c_str());
      return 2;
    }
  }
  std::printf("%s\n", api::spec_to_json(spec).c_str());
  return 0;
}

}  // namespace fg::cli
