#include "src/api/spec.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>
#include <variant>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/soc/figures.h"

namespace fg::api {

namespace {

using json::Value;

std::optional<Mode> mode_from_name(const std::string& n) {
  if (n == "baseline") return Mode::kBaseline;
  if (n == "fireguard") return Mode::kFireguard;
  if (n == "software") return Mode::kSoftware;
  return std::nullopt;
}

constexpr char kSpecSchema[] = "fireguard/spec/v1";

}  // namespace

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kBaseline: return "baseline";
    case Mode::kFireguard: return "fireguard";
    case Mode::kSoftware: return "software";
  }
  return "?";
}

ExperimentSpec table2_spec(const std::string& workload_name) {
  ExperimentSpec s;
  s.name = "table2/" + workload_name;
  s.mode = Mode::kFireguard;
  s.workload = soc::paper_workload(workload_name, soc::default_trace_len());
  s.soc = soc::table2_soc();
  return s;
}

ExperimentSpec default_spec() {
  ExperimentSpec s = table2_spec("blackscholes");
  s.name = "quickstart";
  s.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4)};
  return s;
}

json::Value spec_to_json_value(const ExperimentSpec& spec) {
  Value v = Value::object();
  v.set("schema", Value::of_str(kSpecSchema));
  v.set("name", Value::of_str(spec.name));
  v.set("mode", Value::of_str(mode_name(spec.mode)));
  if (spec.mode == Mode::kSoftware) {
    v.set("scheme", Value::of_str(baseline::sw_scheme_name(spec.scheme)));
  }
  v.set("workload", soc::workload_to_json(spec.workload));
  v.set("soc", soc::soc_to_json(spec.soc));
  if (!spec.sweep.empty()) {
    Value axes = Value::array();
    for (const SweepAxis& a : spec.sweep) {
      Value av = Value::object();
      av.set("key", Value::of_str(a.key));
      Value vals = Value::array();
      for (const std::string& s : a.values) vals.push(Value::of_str(s));
      av.set("values", std::move(vals));
      axes.push(std::move(av));
    }
    v.set("sweep", std::move(axes));
  }
  return v;
}

std::string spec_to_json(const ExperimentSpec& spec, int indent) {
  return json::dump(spec_to_json_value(spec), indent);
}

std::string spec_canonical(const ExperimentSpec& spec) {
  return json::dump(spec_to_json_value(spec));
}

bool spec_from_json(const std::string& text, ExperimentSpec* out,
                    std::string* err) {
  Value root;
  if (!json::parse(text, &root)) {
    if (err != nullptr) *err = "malformed JSON (syntax, escape, or overflow)";
    return false;
  }
  return spec_from_json_value(root, out, err);
}

bool spec_from_json_value(const Value& root, ExperimentSpec* out,
                          std::string* err) {
  if (!root.is_object()) {
    if (err != nullptr) *err = "spec: expected a top-level object";
    return false;
  }
  for (const auto& [k, e] : root.obj) {
    const bool is_str =
        k == "schema" || k == "name" || k == "mode" || k == "scheme";
    if (!is_str && k != "workload" && k != "soc" && k != "sweep") {
      if (err != nullptr) *err = "spec: unknown key \"" + k + "\"";
      return false;
    }
    if (is_str && e.kind != Value::Kind::kString) {
      if (err != nullptr) *err = "spec." + k + ": expected a string";
      return false;
    }
  }
  if (const Value* s = root.get("schema");
      s != nullptr && s->str != kSpecSchema) {
    if (err != nullptr) {
      *err = "spec: schema \"" + s->str + "\" is not \"" + kSpecSchema + "\"";
    }
    return false;
  }
  ExperimentSpec spec = default_spec();
  if (const Value* n = root.get("name"); n != nullptr) spec.name = n->str;
  if (const Value* m = root.get("mode"); m != nullptr) {
    const std::optional<Mode> mode = mode_from_name(m->str);
    if (!mode) {
      if (err != nullptr) *err = "spec: unknown mode \"" + m->str + "\"";
      return false;
    }
    spec.mode = *mode;
  }
  if (const Value* s = root.get("scheme"); s != nullptr) {
    const std::optional<baseline::SwScheme> scheme =
        soc::sw_scheme_from_name(s->str);
    if (!scheme) {
      if (err != nullptr) *err = "spec: unknown scheme \"" + s->str + "\"";
      return false;
    }
    spec.scheme = *scheme;
  }
  if (const Value* w = root.get("workload")) {
    if (!soc::workload_from_json(*w, &spec.workload, err)) return false;
  }
  if (const Value* s = root.get("soc")) {
    if (!soc::soc_from_json(*s, &spec.soc, err)) return false;
  }
  if (const Value* axes = root.get("sweep")) {
    if (!axes->is_array()) {
      if (err != nullptr) *err = "spec.sweep: expected an array";
      return false;
    }
    spec.sweep.clear();
    for (const Value& av : axes->arr) {
      if (!av.is_object()) {
        if (err != nullptr) *err = "spec.sweep[]: expected an object";
        return false;
      }
      for (const auto& [k, e] : av.obj) {
        if (k != "key" && k != "values") {
          if (err != nullptr) *err = "spec.sweep[]: unknown key \"" + k + "\"";
          return false;
        }
        if (k == "key" && e.kind != Value::Kind::kString) {
          if (err != nullptr) *err = "spec.sweep[].key: expected a string";
          return false;
        }
      }
      SweepAxis axis;
      axis.key = av.get_str("key");
      const Value* vals = av.get("values");
      if (axis.key.empty() || vals == nullptr || !vals->is_array() ||
          vals->arr.empty()) {
        if (err != nullptr) {
          *err = "spec.sweep: each axis needs a \"key\" and a non-empty "
                 "\"values\" array";
        }
        return false;
      }
      for (const Value& val : vals->arr) {
        // Values may be written as JSON numbers/bools or strings; apply_set
        // consumes the textual form either way.
        switch (val.kind) {
          case Value::Kind::kString: axis.values.push_back(val.str); break;
          case Value::Kind::kBool:
            axis.values.push_back(val.b ? "true" : "false");
            break;
          case Value::Kind::kNumber:
            axis.values.push_back(json::dump(val));
            break;
          default:
            if (err != nullptr) {
              *err = "spec.sweep." + axis.key + ": unsupported value kind";
            }
            return false;
        }
      }
      spec.sweep.push_back(std::move(axis));
    }
  }
  *out = std::move(spec);
  return true;
}

// --- apply_set -------------------------------------------------------------

namespace {

bool parse_u64_val(const std::string& v, u64* out, const std::string& key,
                   std::string* err) {
  const std::optional<u64> p = parse_u64_strict(v.c_str());
  if (!p) {
    if (err != nullptr) {
      *err = "--set " + key + ": \"" + v + "\" is not a decimal u64";
    }
    return false;
  }
  *out = *p;
  return true;
}

bool parse_bool_val(const std::string& v, bool* out, const std::string& key,
                    std::string* err) {
  if (v == "1" || v == "true" || v == "on") {
    *out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    *out = false;
    return true;
  }
  if (err != nullptr) {
    *err = "--set " + key + ": \"" + v + "\" is not a bool (true/false/1/0)";
  }
  return false;
}

/// The single kernel deployment the convenience keys operate on (most
/// experiments deploy one kernel group; multi-group specs edit the JSON).
soc::KernelDeployment& first_deployment(ExperimentSpec* spec) {
  if (spec->soc.kernels.empty()) {
    spec->soc.kernels.push_back(soc::KernelDeployment{});
  }
  return spec->soc.kernels.front();
}

/// A decimal that fits the integer type T.
template <typename T>
bool set_u(T* field, const std::string& key, const std::string& val,
           std::string* err) {
  u64 v = 0;
  if (!parse_u64_val(val, &v, key, err)) return false;
  constexpr u64 kMax = static_cast<u64>(std::numeric_limits<T>::max());
  if (v > kMax) {
    if (err != nullptr) {
      *err = "--set " + key + ": \"" + val + "\" is out of range (max " +
             std::to_string(kMax) + ")";
    }
    return false;
  }
  *field = static_cast<T>(v);
  return true;
}

/// `val` into a plain spec field, with the parser for the field's type.
bool set_field(const soc::FieldRef& f, const std::string& key,
               const std::string& val, std::string* err) {
  return std::visit(
      [&](auto* x) {
        using T = std::remove_pointer_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) {
          return parse_bool_val(val, x, key, err);
        } else {
          return set_u(x, key, val, err);
        }
      },
      f);
}

/// A knob either sets the plain spec field at `path` or, with path nullptr,
/// runs its own `apply`.
struct SetKey {
  const char* key;
  const char* path;
  const char* help;
  bool (*apply)(ExperimentSpec*, const std::string& key,
                const std::string& val, std::string* err) = nullptr;
};

const SetKey kSetKeys[] = {
    {"name", nullptr, "experiment label",
     [](ExperimentSpec* s, const std::string&, const std::string& v,
        std::string*) {
       s->name = v;
       return true;
     }},
    {"mode", nullptr, "baseline | fireguard | software",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       const std::optional<Mode> m = mode_from_name(v);
       if (!m) {
         if (err != nullptr) *err = "--set " + k + ": unknown mode \"" + v + "\"";
         return false;
       }
       s->mode = *m;
       return true;
     }},
    {"scheme", nullptr,
     "software scheme: shadow_stack_llvm_aarch64 | asan_aarch64 | "
     "asan_x86_64 | dangsan_x86_64",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       const std::optional<baseline::SwScheme> sc = soc::sw_scheme_from_name(v);
       if (!sc) {
         if (err != nullptr) {
           *err = "--set " + k + ": unknown scheme \"" + v + "\"";
         }
         return false;
       }
       s->scheme = *sc;
       s->mode = Mode::kSoftware;
       return true;
     }},
    {"workload", nullptr,
     "workload profile name (blackscholes .. x264, memstall)",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       if (const trace::WorkloadProfile* p = trace::find_profile(v)) {
         s->workload.profile = *p;
         return true;
       }
       if (err != nullptr) {
         *err = "--set " + k + ": unknown workload \"" + v + "\"";
       }
       return false;
     }},
    {"trace_len", nullptr,
     "dynamic instructions; also rescales warmup to one tenth",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       u64 n = 0;
       if (!parse_u64_val(v, &n, k, err)) return false;
       s->workload.n_insts = n;
       s->workload.warmup_insts = n / 10;
       return true;
     }},
    {"warmup", "workload.warmup_insts",
     "warmup instructions (attacks inject after warmup)"},
    {"seed", "workload.seed", "workload stream seed"},
    {"attacks", nullptr,
     "attack plan \"kind:count[,kind:count...]\" (pc_hijack | ret_corrupt | "
     "heap_oob | use_after_free)",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       std::vector<std::pair<trace::AttackKind, u32>> plan;
       size_t pos = 0;
       while (pos < v.size()) {
         const size_t comma = v.find(',', pos);
         const std::string item =
             v.substr(pos, comma == std::string::npos ? comma : comma - pos);
         const size_t colon = item.find(':');
         const std::string kind_s = item.substr(0, colon);
         const std::optional<trace::AttackKind> kind =
             soc::attack_kind_from_name(kind_s);
         u32 count = 1;
         if (!kind || (colon != std::string::npos &&
                       !set_u(&count, k, item.substr(colon + 1), err))) {
           if (err != nullptr && (err->empty() || !kind)) {
             *err = "--set " + k + ": bad attack item \"" + item + "\"";
           }
           return false;
         }
         plan.emplace_back(*kind, count);
         if (comma == std::string::npos) break;
         pos = comma + 1;
       }
       s->workload.attacks = std::move(plan);
       return true;
     }},
    {"kernel", nullptr,
     "guardian kernel of the first deployment: pmc | shadow_stack | asan | "
     "uaf",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       const std::optional<kernels::KernelKind> kind =
           soc::kernel_kind_from_name(v);
       if (!kind) {
         if (err != nullptr) *err = "--set " + k + ": unknown kernel \"" + v + "\"";
         return false;
       }
       first_deployment(s).kind = *kind;
       return true;
     }},
    {"engines", nullptr, "µcores of the first deployment",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       return set_u(&first_deployment(s).n_engines, k, v, err);
     }},
    {"ha", nullptr, "use one hardware accelerator for the first deployment",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       return parse_bool_val(v, &first_deployment(s).use_ha, k, err);
     }},
    {"model", nullptr,
     "programming model: conventional | duff | unrolled | hybrid",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       const std::optional<kernels::ProgModel> m = soc::prog_model_from_name(v);
       if (!m) {
         if (err != nullptr) *err = "--set " + k + ": unknown model \"" + v + "\"";
         return false;
       }
       first_deployment(s).model = *m;
       return true;
     }},
    {"policy", nullptr,
     "scheduling policy: fixed | round_robin | block (sets "
     "policy_overridden)",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       const std::optional<core::SchedPolicy> p = soc::sched_policy_from_name(v);
       if (!p) {
         if (err != nullptr) *err = "--set " + k + ": unknown policy \"" + v + "\"";
         return false;
       }
       soc::KernelDeployment& d = first_deployment(s);
       d.policy = *p;
       d.policy_overridden = true;
       return true;
     }},
    {"filter_width", "soc.frontend.filter_width", "mini-filters (1/2/4)"},
    {"filter_fifo_depth", "soc.frontend.filter_fifo_depth",
     "per-lane filter FIFO depth"},
    {"cdc_depth", "soc.frontend.cdc_depth",
     "clock-domain-crossing FIFO depth"},
    {"freq_ratio", "soc.frontend.freq_ratio", "fast:slow clock ratio"},
    {"mapper_width", "soc.frontend.mapper_width",
     "mapper issue width (footnote 5)"},
    {"msgq_depth", "soc.ucore.msgq_depth", "per-engine message-queue depth"},
    {"isax_ma_stage", "soc.ucore.isax_ma_stage",
     "ISAX in the MA stage (false = post-commit)"},
    {"noc_hop_latency", "soc.noc_hop_latency", "mesh NoC per-hop latency"},
    {"stlf", "soc.core.store_load_forwarding",
     "store-to-load forwarding in the main core"},
    {"rob", "soc.core.rob_entries", "main-core ROB entries"},
    {"iq", "soc.core.iq_entries", "main-core issue-queue entries"},
    {"ldq", "soc.core.ldq_entries", "main-core load-queue entries"},
    {"stq", "soc.core.stq_entries", "main-core store-queue entries"},
    {"phys_regs", "soc.core.phys_regs", "main-core physical registers"},
    {"dram_latency", "soc.mem.dram_latency",
     "flat DRAM latency in core cycles"},
    {"detailed_dram", "soc.mem.detailed_dram", "bank/row/bus DRAM model"},
    {"detailed_ptw", "soc.mem.detailed_ptw", "real Sv39 page-table walks"},
    {"detailed_mem", nullptr, "detailed_dram + detailed_ptw together",
     [](ExperimentSpec* s, const std::string& k, const std::string& v,
        std::string* err) {
       bool b = false;
       if (!parse_bool_val(v, &b, k, err)) return false;
       s->soc.mem.detailed_dram = b;
       s->soc.mem.detailed_ptw = b;
       return true;
     }},
    {"max_fast_cycles", "soc.max_fast_cycles", "simulation cycle cap"},
};

}  // namespace

bool apply_set(ExperimentSpec* spec, const std::string& key,
               const std::string& value, std::string* err) {
  for (const SetKey& sk : kSetKeys) {
    if (key != sk.key) continue;
    if (sk.apply != nullptr) return sk.apply(spec, key, value, err);
    const std::optional<soc::FieldRef> f =
        soc::find_field(&spec->workload, &spec->soc, sk.path);
    FG_CHECK(f.has_value());  // api_test resolves every row's path
    return set_field(*f, key, value, err);
  }
  if (err != nullptr) {
    *err = "--set: unknown key \"" + key + "\" (see `fgsim spec --keys`)";
  }
  return false;
}

std::vector<SetKnob> settable_keys() {
  std::vector<SetKnob> out;
  for (const SetKey& sk : kSetKeys) {
    out.push_back({sk.key, sk.path != nullptr ? sk.path : "", sk.help});
  }
  return out;
}

bool expand_grid(const ExperimentSpec& spec, std::vector<GridPoint>* out,
                 std::string* err) {
  out->clear();
  ExperimentSpec base = spec;
  base.sweep.clear();
  std::vector<GridPoint> grid = {GridPoint{spec.name, std::move(base)}};
  for (const SweepAxis& axis : spec.sweep) {
    if (axis.values.empty()) {
      if (err != nullptr) *err = "sweep axis \"" + axis.key + "\" is empty";
      return false;
    }
    std::vector<GridPoint> next;
    next.reserve(grid.size() * axis.values.size());
    for (const GridPoint& g : grid) {
      for (const std::string& v : axis.values) {
        GridPoint p = g;
        p.name += "/" + axis.key + "=" + v;
        if (!apply_set(&p.spec, axis.key, v, err)) return false;
        p.spec.name = p.name;
        next.push_back(std::move(p));
      }
    }
    grid = std::move(next);
  }
  *out = std::move(grid);
  return true;
}

std::vector<GridPoint> fig10_points(u64 n_insts, bool quick) {
  struct Sweep {
    const char* series;
    kernels::KernelKind kind;
    std::vector<u32> engines;
  };
  const std::vector<Sweep> sweeps =
      quick ? std::vector<Sweep>{{"pmc", kernels::KernelKind::kPmc, {2, 4}},
                                 {"sanitizer", kernels::KernelKind::kAsan,
                                  {2, 4}}}
            : std::vector<Sweep>{
                  {"pmc", kernels::KernelKind::kPmc, {2, 4, 6}},
                  {"shadow", kernels::KernelKind::kShadowStack, {2, 4, 6}},
                  {"sanitizer", kernels::KernelKind::kAsan,
                   {2, 4, 6, 8, 10, 12}},
                  {"uaf", kernels::KernelKind::kUaf, {2, 4, 6, 8, 10, 12}}};
  std::vector<GridPoint> out;
  for (const Sweep& s : sweeps) {
    for (const u32 n : s.engines) {
      for (const std::string& w : soc::paper_workloads()) {
        GridPoint p;
        p.name = "fig10/" + std::string(s.series) + "/" + std::to_string(n) +
                 "ucores/" + w;
        p.spec.name = p.name;
        p.spec.workload = soc::paper_workload(w, n_insts);
        p.spec.soc = soc::table2_soc();
        p.spec.soc.kernels = {soc::deploy(s.kind, n)};
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

std::vector<std::string> spec_schema_keys() {
  // A sample that populates every optional branch of the serialization:
  // software scheme, an attack plan, an overridden policy, a sweep axis.
  ExperimentSpec sample = default_spec();
  sample.mode = Mode::kSoftware;
  sample.workload.attacks = {{trace::AttackKind::kHeapOob, 1}};
  sample.soc.kernels = {soc::deploy(kernels::KernelKind::kAsan, 4,
                                    kernels::ProgModel::kHybrid, false,
                                    core::SchedPolicy::kRoundRobin)};
  sample.sweep = {{"engines", {"2"}}};

  std::vector<std::string> keys;
  const std::function<void(const Value&, const std::string&)> walk =
      [&](const Value& v, const std::string& prefix) {
        if (v.is_object()) {
          for (const auto& [k, e] : v.obj) {
            walk(e, prefix.empty() ? k : prefix + "." + k);
          }
        } else if (v.is_array()) {
          if (!v.arr.empty()) walk(v.arr.front(), prefix + "[]");
          if (v.arr.empty() || v.arr.front().kind < Value::Kind::kArray) {
            keys.push_back(prefix);  // leaf arrays list themselves
          }
        } else {
          keys.push_back(prefix);
        }
      };
  walk(spec_to_json_value(sample), "");
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace fg::api
