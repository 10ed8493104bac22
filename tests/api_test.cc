// The declarative experiment API (src/api): spec serialization exactness,
// the SimSession facade, the deploy()/policy_overridden contract, and the
// acceptance gate of the redesign — a spec exported from the Table II
// configuration must reproduce the legacy run_fireguard() path bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/api/session.h"
#include "src/soc/figures.h"

#ifndef FIREGUARD_SOURCE_DIR
#define FIREGUARD_SOURCE_DIR "."
#endif

namespace fg::api {
namespace {

ExperimentSpec small_table2_spec() {
  ExperimentSpec spec = table2_spec("blackscholes");
  spec.workload = soc::paper_workload("blackscholes", 10'000,
                                      {{trace::AttackKind::kHeapOob, 4}});
  spec.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// ACCEPTANCE: spec → JSON → spec → run must be bit-identical to the
/// pre-redesign run_fireguard(table2_soc()) path on the same workload.
TEST(ExperimentSpec, ExportedTable2SpecReproducesRunFireguardBitExactly) {
  const ExperimentSpec spec = small_table2_spec();

  // The legacy path.
  const soc::RunResult legacy = soc::run_fireguard(spec.workload, spec.soc);

  // The new path, through the full serialization round-trip.
  const std::string exported = spec_to_json(spec);
  ExperimentSpec reparsed;
  std::string err;
  ASSERT_TRUE(spec_from_json(exported, &reparsed, &err)) << err;
  const RunOutcome outcome = run_spec(reparsed);

  EXPECT_EQ(outcome.result.cycles, legacy.cycles);
  EXPECT_EQ(outcome.result.committed, legacy.committed);
  EXPECT_EQ(outcome.result.packets, legacy.packets);
  EXPECT_EQ(outcome.result.spurious, legacy.spurious);
  EXPECT_EQ(outcome.result.planned_attacks, legacy.planned_attacks);
  ASSERT_EQ(outcome.result.detections.size(), legacy.detections.size());
  for (size_t i = 0; i < legacy.detections.size(); ++i) {
    EXPECT_EQ(outcome.result.detections[i].attack_id,
              legacy.detections[i].attack_id);
    EXPECT_EQ(outcome.result.detections[i].engine,
              legacy.detections[i].engine);
    EXPECT_EQ(outcome.result.detections[i].commit_fast,
              legacy.detections[i].commit_fast);
    EXPECT_EQ(outcome.result.detections[i].detect_fast,
              legacy.detections[i].detect_fast);
  }
  EXPECT_EQ(outcome.result.stall_fractions, legacy.stall_fractions);
  // And the snapshot agrees with the run it froze.
  EXPECT_EQ(outcome.snapshot.cycles, legacy.cycles);
  EXPECT_EQ(outcome.snapshot.committed, legacy.committed);
  EXPECT_EQ(outcome.snapshot.packets, legacy.packets);
}

TEST(ExperimentSpec, CanonicalFormIsAFixedPointOfTheRoundTrip) {
  const ExperimentSpec spec = small_table2_spec();
  ExperimentSpec back;
  std::string err;
  ASSERT_TRUE(spec_from_json(spec_to_json(spec), &back, &err)) << err;
  EXPECT_EQ(spec_canonical(back), spec_canonical(spec));
  // Compact form too.
  ASSERT_TRUE(spec_from_json(spec_canonical(spec), &back, &err)) << err;
  EXPECT_EQ(spec_canonical(back), spec_canonical(spec));
}

TEST(ExperimentSpec, SparseSpecInheritsTable2Defaults) {
  ExperimentSpec spec;
  std::string err;
  ASSERT_TRUE(spec_from_json(
      R"({"workload": {"profile": {"name": "x264"}},
          "soc": {"kernels": [{"kind": "pmc", "engines": 6}]}})",
      &spec, &err))
      << err;
  EXPECT_EQ(spec.workload.profile.name, "x264");
  ASSERT_EQ(spec.soc.kernels.size(), 1u);
  EXPECT_EQ(spec.soc.kernels[0].kind, kernels::KernelKind::kPmc);
  EXPECT_EQ(spec.soc.kernels[0].n_engines, 6u);
  // Everything unnamed keeps Table II.
  const soc::SocConfig t2 = soc::table2_soc();
  EXPECT_EQ(spec.soc.core.rob_entries, t2.core.rob_entries);
  EXPECT_EQ(spec.soc.frontend.cdc_depth, t2.frontend.cdc_depth);
  EXPECT_EQ(spec.soc.mem.dram_latency, t2.mem.dram_latency);
}

TEST(ExperimentSpec, UnknownKeysAndEnumsAreLoudErrors) {
  ExperimentSpec spec;
  std::string err;
  EXPECT_FALSE(spec_from_json(R"({"workloat": {}})", &spec, &err));
  EXPECT_NE(err.find("workloat"), std::string::npos);
  EXPECT_FALSE(
      spec_from_json(R"({"soc": {"kernels": [{"kind": "asanx"}]}})", &spec,
                     &err));
  EXPECT_NE(err.find("asanx"), std::string::npos);
  EXPECT_FALSE(
      spec_from_json(R"({"soc": {"core": {"rob": 128}}})", &spec, &err));
  EXPECT_NE(err.find("rob"), std::string::npos);
  EXPECT_FALSE(spec_from_json(R"({"mode": "hardware"})", &spec, &err));
  EXPECT_FALSE(spec_from_json(R"({"schema": "fireguard/spec/v999"})", &spec,
                              &err));
}

TEST(ExperimentSpec, WrongKindAndOutOfRangeLeavesAreLoudErrors) {
  // Each case names the dotted path of the offending leaf; none of them may
  // fall back to the default or truncate to the field's width.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"soc": {"core": {"rob_entries": "64"}}})",
       "soc.core.rob_entries: expected an integer"},
      {R"({"soc": {"core": {"rob_entries": 4294967360}}})",
       "soc.core.rob_entries: 4294967360 is out of range"},
      {R"({"soc": {"core": {"store_load_forwarding": 1}}})",
       "soc.core.store_load_forwarding: expected true or false"},
      {R"({"workload": {"profile": {"n_funcs": 48.5}}})",
       "workload.profile.n_funcs: expected an integer"},
      {R"({"workload": {"profile": {"n_funcs": 2147483648}}})",
       "workload.profile.n_funcs: 2147483648 is out of range"},
      {R"({"workload": {"seed": 1e3}})", "workload.seed: expected an integer"},
      {R"({"workload": {"profile": {"f_load": true}}})",
       "workload.profile.f_load: expected a number"},
      {R"({"workload": {"attacks": [{"kind": "pc_hijack",
                                       "count": 4294967296}]}})",
       "workload.attacks[].count: 4294967296 is out of range"},
      {R"({"workload": {"attacks": [{"kind": "pc_hijack", "cnt": 2}]}})",
       "workload.attacks[]: unknown key \"cnt\""},
      {R"({"soc": {"kernels": [{"engines": 4294967298}]}})",
       "soc.kernels[].engines: 4294967298 is out of range"},
      {R"({"soc": {"kernels": [{"kind": 3}]}})",
       "soc.kernels[].kind: expected a string"},
      {R"({"soc": {"mem": {"l2": 512}}})", "soc.mem.l2: expected an object"},
      // Every unknown-key message carries the full path, main-memory caches
      // included.
      {R"({"soc": {"mem": {"l2": {"sizee": 1}}}})",
       "soc.mem.l2: unknown key \"sizee\""},
      {R"({"soc": {"ucore": {"dcache": {"sizee": 1}}}})",
       "soc.ucore.dcache: unknown key \"sizee\""},
      // The top-level strings and the sweep axes are as strict as the leaves.
      {R"({"name": 5})", "spec.name: expected a string"},
      {R"({"mode": 3})", "spec.mode: expected a string"},
      {R"({"mode": "software", "scheme": false})",
       "spec.scheme: expected a string"},
      {R"({"schema": 1})", "spec.schema: expected a string"},
      {R"({"sweep": [{"key": "rob", "values": ["64"], "extra": 1}]})",
       "spec.sweep[]: unknown key \"extra\""},
      {R"({"sweep": [{"key": 7, "values": ["64"]}]})",
       "spec.sweep[].key: expected a string"},
      {R"({"sweep": ["rob"]})", "spec.sweep[]: expected an object"},
  };
  for (const auto& [text, want] : cases) {
    ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(spec_from_json(text, &spec, &err)) << text;
    EXPECT_NE(err.find(want), std::string::npos) << text << " -> " << err;
  }
  // Doubles still take integers, and fields at their type's maximum load.
  ExperimentSpec spec;
  std::string err;
  ASSERT_TRUE(spec_from_json(
      R"({"workload": {"seed": 18446744073709551615,
                       "profile": {"f_load": 1, "n_funcs": 2147483647}},
          "soc": {"core": {"rob_entries": 4294967295}}})",
      &spec, &err))
      << err;
  EXPECT_EQ(spec.workload.profile.f_load, 1.0);
  EXPECT_EQ(spec.workload.profile.n_funcs, 2147483647);
  EXPECT_EQ(spec.workload.seed, 18446744073709551615ull);
  EXPECT_EQ(spec.soc.core.rob_entries, 4294967295u);
}

TEST(ExperimentSpec, Table2ExampleFileMatchesTheProgrammaticSpec) {
  ExperimentSpec from_file;
  std::string err;
  ASSERT_TRUE(spec_from_json(
      read_file(std::string(FIREGUARD_SOURCE_DIR) + "/examples/table2.json"),
      &from_file, &err))
      << err;

  ExperimentSpec programmatic = table2_spec("blackscholes");
  programmatic.name = "table2/quickstart";
  programmatic.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  EXPECT_EQ(spec_canonical(from_file), spec_canonical(programmatic));
}

// --- deploy() / policy_overridden ergonomics (satellite regression) -------

TEST(KernelDeployment, DeployWithPolicySetsOverriddenFlag) {
  const soc::KernelDeployment d =
      soc::deploy(kernels::KernelKind::kShadowStack, 4,
                  kernels::ProgModel::kHybrid, false,
                  core::SchedPolicy::kBlock);
  EXPECT_EQ(d.policy, core::SchedPolicy::kBlock);
  EXPECT_TRUE(d.policy_overridden);

  const soc::KernelDeployment plain =
      soc::deploy(kernels::KernelKind::kShadowStack, 4);
  EXPECT_FALSE(plain.policy_overridden);
}

TEST(KernelDeployment, SpecLayerNeverProducesInconsistentPolicyState) {
  // JSON with a policy: flag set automatically.
  ExperimentSpec spec;
  std::string err;
  ASSERT_TRUE(spec_from_json(
      R"({"soc": {"kernels": [{"kind": "shadow_stack", "policy": "block"}]}})",
      &spec, &err))
      << err;
  ASSERT_EQ(spec.soc.kernels.size(), 1u);
  EXPECT_EQ(spec.soc.kernels[0].policy, core::SchedPolicy::kBlock);
  EXPECT_TRUE(spec.soc.kernels[0].policy_overridden);

  // JSON without a policy: flag stays clear.
  ASSERT_TRUE(spec_from_json(
      R"({"soc": {"kernels": [{"kind": "shadow_stack"}]}})", &spec, &err));
  EXPECT_FALSE(spec.soc.kernels[0].policy_overridden);

  // --set policy=…: flag set automatically, and it survives the round-trip.
  ASSERT_TRUE(apply_set(&spec, "policy", "fixed", &err)) << err;
  EXPECT_TRUE(spec.soc.kernels[0].policy_overridden);
  ExperimentSpec back;
  ASSERT_TRUE(spec_from_json(spec_to_json(spec), &back, &err)) << err;
  EXPECT_EQ(back.soc.kernels[0].policy, core::SchedPolicy::kFixed);
  EXPECT_TRUE(back.soc.kernels[0].policy_overridden);
}

// --- overrides and sweep expansion ----------------------------------------

TEST(ApplySet, KnownKeysApplyUnknownKeysFail) {
  ExperimentSpec spec = default_spec();
  std::string err;
  ASSERT_TRUE(apply_set(&spec, "trace_len", "5000", &err)) << err;
  EXPECT_EQ(spec.workload.n_insts, 5000u);
  EXPECT_EQ(spec.workload.warmup_insts, 500u);
  ASSERT_TRUE(apply_set(&spec, "kernel", "uaf", &err)) << err;
  EXPECT_EQ(spec.soc.kernels.front().kind, kernels::KernelKind::kUaf);
  ASSERT_TRUE(apply_set(&spec, "detailed_mem", "true", &err)) << err;
  EXPECT_TRUE(spec.soc.mem.detailed_dram);
  EXPECT_TRUE(spec.soc.mem.detailed_ptw);
  ASSERT_TRUE(apply_set(&spec, "attacks", "heap_oob:3,pc_hijack:2", &err))
      << err;
  ASSERT_EQ(spec.workload.attacks.size(), 2u);
  EXPECT_EQ(spec.workload.attacks[0].first, trace::AttackKind::kHeapOob);
  EXPECT_EQ(spec.workload.attacks[0].second, 3u);

  EXPECT_FALSE(apply_set(&spec, "no_such_knob", "1", &err));
  EXPECT_NE(err.find("no_such_knob"), std::string::npos);
  EXPECT_FALSE(apply_set(&spec, "engines", "many", &err));
}

TEST(ApplySet, OutOfRangeValuesAreRejectedNotTruncated) {
  ExperimentSpec spec = default_spec();
  const std::string before = spec_canonical(spec);
  std::string err;
  EXPECT_FALSE(apply_set(&spec, "rob", "4294967360", &err));
  EXPECT_EQ(err, "--set rob: \"4294967360\" is out of range (max 4294967295)");
  EXPECT_FALSE(apply_set(&spec, "engines", "4294967298", &err));
  EXPECT_EQ(err,
            "--set engines: \"4294967298\" is out of range (max 4294967295)");
  EXPECT_FALSE(apply_set(&spec, "attacks", "heap_oob:4294967296", &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_FALSE(apply_set(&spec, "seed", "18446744073709551616", &err));
  EXPECT_EQ(err, "--set seed: \"18446744073709551616\" is not a decimal u64");
  EXPECT_FALSE(apply_set(&spec, "stlf", "2", &err));
  EXPECT_NE(err.find("is not a bool"), std::string::npos) << err;
  EXPECT_EQ(spec_canonical(spec), before);

  ASSERT_TRUE(apply_set(&spec, "rob", "4294967295", &err)) << err;
  EXPECT_EQ(spec.soc.core.rob_entries, 4294967295u);
  ASSERT_TRUE(apply_set(&spec, "seed", "18446744073709551615", &err)) << err;
  EXPECT_EQ(spec.workload.seed, 18446744073709551615ull);
}

/// The leaf of an exported spec at a flattened schema key
/// ("soc.kernels[].engines"), or nullptr.
json::Value* leaf_at(json::Value* v, const std::string& key) {
  size_t pos = 0;
  while (v != nullptr && pos <= key.size()) {
    const size_t dot = std::min(key.find('.', pos), key.size());
    std::string part = key.substr(pos, dot - pos);
    const bool array = part.ends_with("[]");
    if (array) part.resize(part.size() - 2);
    const auto it = v->obj.find(part);
    v = it == v->obj.end() ? nullptr : &it->second;
    if (v != nullptr && array) v = v->arr.empty() ? nullptr : &v->arr[0];
    pos = dot + 1;
  }
  return v;
}

/// A spec that populates every optional branch of the schema, as
/// spec_schema_keys() does.
ExperimentSpec full_sample() {
  ExperimentSpec s = default_spec();
  s.mode = Mode::kSoftware;
  s.workload.attacks = {{trace::AttackKind::kHeapOob, 1}};
  s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4,
                               kernels::ProgModel::kHybrid, false,
                               core::SchedPolicy::kRoundRobin)};
  s.sweep = {{"engines", {"2"}}};
  return s;
}

TEST(ApplySet, EveryAliasSetsTheSchemaFieldItNames) {
  const std::vector<std::string> schema = spec_schema_keys();
  size_t aliases = 0;
  for (const SetKnob& k : settable_keys()) {
    if (k.path.empty()) continue;
    ++aliases;
    EXPECT_TRUE(std::binary_search(schema.begin(), schema.end(), k.path))
        << k.key << " -> " << k.path << " is not a spec_schema_keys() entry";
    // Setting the alias must change that leaf and nothing else.
    ExperimentSpec spec = full_sample();
    json::Value want = spec_to_json_value(spec);
    json::Value* leaf = leaf_at(&want, k.path);
    ASSERT_NE(leaf, nullptr) << k.path;
    std::string text = "4242";
    if (leaf->kind == json::Value::Kind::kBool) {
      text = leaf->b ? "false" : "true";
      *leaf = json::Value::of_bool(!leaf->b);
    } else {
      *leaf = json::Value::of(4242);
    }
    std::string err;
    ASSERT_TRUE(apply_set(&spec, k.key, text, &err)) << err;
    EXPECT_EQ(spec_canonical(spec), json::dump(want)) << k.key;
  }
  EXPECT_EQ(aliases, 20u);
}

TEST(ApplySet, WorkloadKnobAndSpecFileShareOneProfileLookup) {
  // The stall-bound profile is outside the paper's figure grids, yet the
  // command line selects it exactly as a spec file does.
  ExperimentSpec by_set = default_spec();
  std::string err;
  ASSERT_TRUE(apply_set(&by_set, "workload", "memstall", &err)) << err;
  ExperimentSpec by_file;
  ASSERT_TRUE(spec_from_json(
      R"({"workload": {"profile": {"name": "memstall"}}})", &by_file, &err))
      << err;
  EXPECT_EQ(by_set.workload.profile.name, "memstall");
  EXPECT_EQ(spec_canonical(by_set), spec_canonical(by_file));

  ExperimentSpec spec = default_spec();
  const std::string before = spec_canonical(spec);
  EXPECT_FALSE(apply_set(&spec, "workload", "no_such_profile", &err));
  EXPECT_NE(err.find("unknown workload"), std::string::npos);
  EXPECT_EQ(spec_canonical(spec), before);
}

TEST(SweepExpansion, CrossProductInDeclarationOrder) {
  ExperimentSpec spec = default_spec();
  spec.name = "grid";
  spec.sweep = {{"kernel", {"pmc", "asan"}}, {"engines", {"2", "4"}}};
  std::vector<GridPoint> grid;
  std::string err;
  ASSERT_TRUE(expand_grid(spec, &grid, &err)) << err;
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].name, "grid/kernel=pmc/engines=2");
  EXPECT_EQ(grid[1].name, "grid/kernel=pmc/engines=4");
  EXPECT_EQ(grid[2].name, "grid/kernel=asan/engines=2");
  EXPECT_EQ(grid[3].name, "grid/kernel=asan/engines=4");
  EXPECT_EQ(grid[3].spec.soc.kernels.front().kind,
            kernels::KernelKind::kAsan);
  EXPECT_EQ(grid[3].spec.soc.kernels.front().n_engines, 4u);
  EXPECT_TRUE(grid[0].spec.sweep.empty());

  spec.sweep = {{"bogus_axis", {"1"}}};
  EXPECT_FALSE(expand_grid(spec, &grid, &err));
}

TEST(SimSession, SweepGridMatchesSingleRunsAndIsJobCountInvariant) {
  ExperimentSpec spec = default_spec();
  spec.workload = soc::paper_workload("dedup", 3'000);
  spec.sweep = {{"engines", {"2", "4"}}};

  SessionConfig serial_cfg;
  serial_cfg.jobs = 1;
  SimSession serial(spec, serial_cfg);
  SessionConfig par_cfg;
  par_cfg.jobs = 4;
  SimSession parallel(spec, par_cfg);

  size_t progress_events = 0;
  parallel.on_progress([&](const Progress& p) {
    ++progress_events;
    EXPECT_LE(p.completed, p.total);
    EXPECT_NE(p.outcome, nullptr);
  });

  const std::vector<RunOutcome>& a = serial.run_all();
  const std::vector<RunOutcome>& b = parallel.run_all();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(progress_events, 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(snapshots_equal(a[i].snapshot, b[i].snapshot))
        << snapshot_diff(a[i].snapshot, b[i].snapshot, "serial", "parallel");
    EXPECT_EQ(a[i].baseline_cycles, b[i].baseline_cycles);
    EXPECT_EQ(a[i].name, b[i].name);
  }
  // The two points share one baseline (same workload/core/mem sub-spec).
  EXPECT_EQ(serial.baseline_cache().misses(), 1u);
  EXPECT_EQ(serial.baseline_cache().hits(), 1u);

  // And each grid point equals a standalone run of its spec.
  const RunOutcome solo = run_spec(serial.points()[1].spec);
  EXPECT_TRUE(snapshots_equal(solo.snapshot, a[1].snapshot));
}

TEST(SimSession, OutcomeJsonEmbedsTheCanonicalSnapshot) {
  ExperimentSpec spec = default_spec();
  spec.workload = soc::paper_workload("swaptions", 2'000);
  SimSession session(spec, SessionConfig{1, false});
  const RunOutcome& r = session.run();
  const std::string text = outcome_json(r);
  json::Value v;
  ASSERT_TRUE(json::parse(text, &v)) << text;
  EXPECT_EQ(v.get_str("schema"), "fireguard/outcome/v1");
  EXPECT_EQ(v.get_u64("cycles"), r.result.cycles);
  const json::Value* snap = v.get("snapshot");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->get_u64("committed"), r.snapshot.committed);
}

// --- docs drift gate -------------------------------------------------------

TEST(SpecSchema, EveryFieldAndKnobIsDocumentedInApiMd) {
  const std::string doc =
      read_file(std::string(FIREGUARD_SOURCE_DIR) + "/docs/API.md");
  ASSERT_FALSE(doc.empty());
  // A spec field added (or renamed) without a matching docs/API.md update
  // fails here: the schema reference must list every flattened key.
  for (const std::string& key : spec_schema_keys()) {
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "docs/API.md is missing schema key `" << key
        << "` — update the ExperimentSpec schema reference";
  }
  for (const SetKnob& k : settable_keys()) {
    EXPECT_NE(doc.find("`" + k.key + "`"), std::string::npos)
        << "docs/API.md is missing --set knob `" << k.key << "`";
  }
}

/// Every number and bool leaf of the schema survives import and export
/// with a value of its own: a field the reader dropped, or read into a
/// neighbour, would come back changed. The fuzzer never varies fields like
/// soc.mem.ptw.root_base, so nothing else would notice.
TEST(SpecSchema, EveryLeafRoundTripsADistinctValue) {
  const json::Value base = spec_to_json_value(full_sample());
  u64 next = 1000;
  size_t leaves = 0;
  for (const std::string& key : spec_schema_keys()) {
    json::Value v = base;
    json::Value* leaf = leaf_at(&v, key);
    ASSERT_NE(leaf, nullptr) << key;
    if (leaf->kind == json::Value::Kind::kBool) {
      *leaf = json::Value::of_bool(!leaf->b);
    } else if (leaf->kind == json::Value::Kind::kNumber) {
      *leaf = leaf->is_float ? json::Value::of_double(next + 0.25)
                             : json::Value::of(next);
      ++next;
    } else {
      continue;  // strings, enums and arrays
    }
    ++leaves;
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(spec_from_json_value(v, &spec, &err)) << key << ": " << err;
    EXPECT_EQ(spec_canonical(spec), json::dump(v)) << key;
  }
  EXPECT_GE(leaves, 147u);
}

TEST(SpecSchema, BaselineCacheKeyIsTheCanonicalSubSpec) {
  const ExperimentSpec spec = small_table2_spec();
  const std::string key =
      soc::baseline_subspec_json(spec.workload, spec.soc);
  json::Value v;
  ASSERT_TRUE(json::parse(key, &v)) << key;
  EXPECT_EQ(v.get_str("schema"), "fireguard/baseline_key/v1");
  ASSERT_NE(v.get("workload"), nullptr);
  ASSERT_NE(v.get("core"), nullptr);
  ASSERT_NE(v.get("mem"), nullptr);
  // Frontend / kernel knobs are deliberately absent: FireGuard-side sweeps
  // share one baseline per (workload, core, mem) point.
  EXPECT_EQ(v.get("frontend"), nullptr);
  EXPECT_EQ(v.get("kernels"), nullptr);
}

}  // namespace
}  // namespace fg::api
