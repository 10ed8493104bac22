// ExperimentSpec: the one declarative, serializable description of an
// experiment.
//
// A spec names the system variant to run (unmonitored baseline, FireGuard,
// or a software instrumentation scheme), the workload trace (profile, seed,
// length, warmup, attack plan), the full SoC configuration, and — optionally
// — sweep axes: named value lists whose cross product expands the spec into
// a grid of concrete points. One spec in, one structured result out: any
// scenario a user can write in a file is runnable (`fgsim run`), sweepable
// (`fgsim sweep`), cacheable (the BaselineCache keys on the serialized
// baseline-relevant sub-spec), and fuzz-comparable (the fuzzer's seed
// expansion produces an ExperimentSpec) through the same code path.
//
// Serialization contract (see src/soc/config_json.h): exports are complete
// and bit-exact — spec → JSON → spec reproduces the identical StatSnapshot;
// hand-written files may be sparse — absent fields keep the Table II /
// library defaults, unknown keys are errors, never silently ignored.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/soc/config_json.h"
#include "src/soc/experiment.h"

namespace fg::api {

enum class Mode : u8 { kBaseline, kFireguard, kSoftware };

const char* mode_name(Mode m);

/// One sweep axis: applying `key = values[i]` (via apply_set) for each i.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

struct ExperimentSpec {
  std::string name = "experiment";
  Mode mode = Mode::kFireguard;
  /// Software scheme; meaningful only when mode == kSoftware.
  baseline::SwScheme scheme = baseline::SwScheme::kShadowStackLlvm;
  trace::WorkloadConfig workload;
  soc::SocConfig soc;
  /// Sweep axes, expanded as a cross product in declaration order.
  std::vector<SweepAxis> sweep;
};

/// Table II SoC + the default workload (blackscholes, FG_TRACE_LEN-sized
/// trace, warmup = one tenth) and one ASan 4-µcore deployment — the
/// quickstart experiment. Hand-written spec files override from here.
ExperimentSpec default_spec();

/// The exact spec the paper's Table II column describes, with no kernels
/// deployed (callers add deployments); equals default_spec() minus the
/// quickstart deployment.
ExperimentSpec table2_spec(const std::string& workload_name);

// --- serialization --------------------------------------------------------
json::Value spec_to_json_value(const ExperimentSpec& spec);
std::string spec_to_json(const ExperimentSpec& spec, int indent = 2);
/// Parse over default_spec() defaults. Returns false with a message in
/// `*err` on malformed JSON, unknown keys, unknown enum names.
bool spec_from_json(const std::string& text, ExperimentSpec* out,
                    std::string* err);
/// As above, from an already parsed JSON value.
bool spec_from_json_value(const json::Value& root, ExperimentSpec* out,
                          std::string* err);

/// Canonical one-line form of a spec (sorted keys, exact numbers): equal
/// specs ⇔ equal strings.
std::string spec_canonical(const ExperimentSpec& spec);

// --- overrides (--set key=value, sweep axes) -------------------------------
/// Apply one `key=value` override. Returns false with a message in `*err`
/// for unknown keys or unparsable values. Keys are the flattened knob names
/// listed by settable_keys(); "policy" sets policy_overridden with it.
bool apply_set(ExperimentSpec* spec, const std::string& key,
               const std::string& value, std::string* err);

/// One knob apply_set understands. Most set the one plain spec field at
/// `path` ("soc.core.rob_entries"); the rest have their own logic and an
/// empty path.
struct SetKnob {
  std::string key;
  std::string path;
  std::string help;
};
std::vector<SetKnob> settable_keys();

// --- sweep expansion --------------------------------------------------------
struct GridPoint {
  std::string name;  // spec.name + "/key=value" per axis
  ExperimentSpec spec;
};

/// Expand the sweep axes into the full grid (a spec with no axes expands to
/// exactly itself). Returns false with `*err` when an axis key/value does
/// not apply. Each grid point's own `sweep` list is empty.
bool expand_grid(const ExperimentSpec& spec, std::vector<GridPoint>* out,
                 std::string* err);

/// Figure 10 grid: slowdown vs. µcore count for all four guardian kernels
/// (PMC / shadow stack over {2,4,6}; ASan / UaF over {2,4,6,8,10,12}), all
/// nine paper workloads — 162 points named "fig10/<series>/<workload>",
/// series "<kernel>/<n>ucores". `quick` shrinks it to PMC+ASan at {2,4}
/// (36 points) for CI-sized runs. Defined once so bench_fig10_scalability
/// and `fgsim speed`'s parallel-vs-serial audit run the SAME points.
std::vector<GridPoint> fig10_points(u64 n_insts, bool quick = false);

/// Flattened JSON schema of a fully-populated spec ("soc.core.rob_entries",
/// "soc.kernels[].policy", ...). Used by the docs drift check: every key
/// must appear in docs/API.md.
std::vector<std::string> spec_schema_keys();

}  // namespace fg::api
