#include "src/testing/golden.h"

#include <fstream>
#include <sstream>

#include "src/common/simctl.h"
#include "src/common/json.h"

namespace fg::fuzz {

namespace {

struct ModeGuard {
  bool entry = cycle_exact();
  ~ModeGuard() { set_cycle_exact(entry); }
};

std::string golden_path(const std::string& dir, const GoldenEntry& e) {
  return dir + "/" + e.name + ".json";
}

std::string golden_file_text(const GoldenEntry& e, const Scenario& s,
                             const api::StatSnapshot& snap) {
  char buf[128];
  std::string out = "{\n";
  out += "  \"schema\": \"fireguard/golden/v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"name\": \"%s\",\n", e.name);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"seed\": \"0x%016llx\",\n",
                static_cast<unsigned long long>(e.seed));
  out += buf;
  out += "  \"scenario\":\n" + scenario_json(s, 2) + ",\n";
  out += "  \"snapshot\":\n" + api::snapshot_json(snap, 2) + "\n";
  out += "}\n";
  return out;
}

}  // namespace

const std::vector<GoldenEntry>& golden_entries() {
  // Seeds chosen arbitrarily but FIXED FOREVER: each file name is bound to
  // its seed, and the checked-in snapshots freeze these seeds' semantics.
  // (The spread covers, by construction of scenario_from_seed, all four
  // kernels, HA and mixed deployments, all programming models, post-commit
  // ISAX, and the detailed memory models — scenario_test asserts the
  // coverage so a generator change cannot silently narrow the corpus.)
  static const std::vector<GoldenEntry> kEntries = {
      {"g01", 0x0001}, {"g02", 0x0002}, {"g03", 0x0003}, {"g04", 0x0004},
      {"g05", 0x0005}, {"g06", 0x0006}, {"g07", 0x0007}, {"g08", 0x0008},
      {"g09", 0x0009}, {"g10", 0x000a}, {"g11", 0x000b}, {"g12", 0x000c},
      {"g13", 0x1111}, {"g14", 0x2222}, {"g15", 0x3333}, {"g16", 0x4444},
      {"g17", 0x5555}, {"g18", 0x6666}, {"g19", 0x7777}, {"g20", 0x8888},
      // Memory/stall-bound slice (golden_stall_envelope): detailed DRAM +
      // PTW with the pointer-chasing memstall workload, mixing ISAX-in-MA
      // and deep post-commit µcore stalls. These freeze the semantics the
      // event scheduler's skip horizons are most likely to perturb.
      {"g21", 0x9999, true}, {"g22", 0xaaaa, true}, {"g23", 0xbbbb, true},
      {"g24", 0xcccc, true}, {"g25", 0xdddd, true}, {"g26", 0xeeee, true},
  };
  return kEntries;
}

ScenarioEnvelope golden_envelope() {
  ScenarioEnvelope env;
  env.min_insts = 1'500;
  env.max_insts = 5'000;
  return env;
}

ScenarioEnvelope golden_stall_envelope() {
  ScenarioEnvelope env = golden_envelope();
  env.stall_bound_bias = 1.0;
  return env;
}

std::string update_golden(const std::string& dir, const ScenarioRunner& r) {
  const ScenarioRunner runner = r ? r : run_scenario_snapshot_in_mode;
  ModeGuard guard;
  for (const GoldenEntry& e : golden_entries()) {
    const Scenario s = scenario_from_seed(
        e.seed, e.stall ? golden_stall_envelope() : golden_envelope());
    const api::StatSnapshot snap = runner(s, /*exact=*/false);
    std::ofstream out(golden_path(dir, e));
    if (!out) return "cannot write " + golden_path(dir, e);
    out << golden_file_text(e, s, snap);
  }
  return "";
}

std::string check_golden(const std::string& dir, const ScenarioRunner& r) {
  const ScenarioRunner runner = r ? r : run_scenario_snapshot_in_mode;
  ModeGuard guard;
  std::string report;
  for (const GoldenEntry& e : golden_entries()) {
    const std::string path = golden_path(dir, e);
    std::ifstream in(path);
    if (!in) {
      report += "MISSING " + path + " (run fgsim fuzz --update-golden)\n";
      continue;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    json::Value root;
    if (!json::parse(ss.str(), &root) ||
        root.get_str("schema") != "fireguard/golden/v1") {
      report += "UNPARSABLE " + path + "\n";
      continue;
    }
    const std::string want_seed = root.get_str("seed");
    char seed_buf[32];
    std::snprintf(seed_buf, sizeof(seed_buf), "0x%016llx",
                  static_cast<unsigned long long>(e.seed));
    if (want_seed != seed_buf) {
      report += "SEED-MISMATCH " + path + " (file " + want_seed +
                ", corpus " + seed_buf + ")\n";
      continue;
    }
    api::StatSnapshot golden;
    if (root.get("snapshot") == nullptr) {
      report += "UNPARSABLE " + path + " (no snapshot)\n";
      continue;
    }
    // Extract the snapshot object textually (it is the last member) so the
    // one parser/serializer pair in snapshot.cc stays authoritative.
    const std::string text = ss.str();
    const size_t tag = text.find("\"snapshot\":");
    const size_t open = text.find('{', tag);
    const size_t close = text.rfind('}');
    const size_t inner_close = text.rfind('}', close - 1);
    if (tag == std::string::npos || open == std::string::npos ||
        inner_close == std::string::npos || inner_close < open ||
        !api::snapshot_from_json(
            text.substr(open, inner_close - open + 1), &golden)) {
      report += "UNPARSABLE " + path + " (snapshot)\n";
      continue;
    }
    const Scenario s = scenario_from_seed(
        e.seed, e.stall ? golden_stall_envelope() : golden_envelope());
    const api::StatSnapshot fresh = runner(s, /*exact=*/false);
    if (!api::snapshots_equal(golden, fresh)) {
      report += "MISMATCH " + std::string(e.name) + " (" +
                scenario_summary(s) + "):\n" +
                api::snapshot_diff(golden, fresh, "golden", "run");
    }
  }
  return report;
}

}  // namespace fg::fuzz
