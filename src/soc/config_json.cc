#include "src/soc/config_json.h"

#include <cstring>
#include <limits>
#include <type_traits>

#include "src/trace/profile.h"

namespace fg::soc {

namespace {

using json::Value;

// -- one field list per config struct -------------------------------------
// `io(key, x)` names a plain field once: a number or bool leaf, or a nested
// config struct. The writer, the reader, its unknown-key check and the
// dotted-path finder all walk these lists, so the accepted schema IS the
// emitted schema. Pieces that are not plain fields (the profile's name
// rebase, enum strings, the attacks and kernels arrays) are written by hand
// next to the list's users below.

template <class Io> void fields(Io& io, mem::CacheConfig& c) {
  io("size_bytes", c.size_bytes);
  io("ways", c.ways);
  io("line_bytes", c.line_bytes);
  io("hit_latency", c.hit_latency);
  io("mshrs", c.mshrs);
  io("writeback_penalty", c.writeback_penalty);
}

template <class Io> void fields(Io& io, mem::TlbConfig& t) {
  io("entries", t.entries);
  io("page_bytes", t.page_bytes);
  io("walk_latency", t.walk_latency);
}

template <class Io> void fields(Io& io, mem::DramConfig& d) {
  io("n_banks", d.n_banks);
  io("row_bytes", d.row_bytes);
  io("t_cas", d.t_cas);
  io("t_rcd", d.t_rcd);
  io("t_rp", d.t_rp);
  io("burst_cycles", d.burst_cycles);
  io("max_requests", d.max_requests);
}

template <class Io> void fields(Io& io, mem::PtwConfig& p) {
  io("levels", p.levels);
  io("page_bits", p.page_bits);
  io("index_bits", p.index_bits);
  io("root_base", p.root_base);
  io("walker_overhead", p.walker_overhead);
}

template <class Io> void fields(Io& io, boom::PredictorConfig& p) {
  io("bimodal_entries", p.bimodal_entries);
  io("tage_tables", p.tage_tables);
  io("tage_entries", p.tage_entries);
  io("min_history", p.min_history);
  io("max_history", p.max_history);
  io("btb_entries", p.btb_entries);
  io("ras_entries", p.ras_entries);
}

template <class Io> void fields(Io& io, boom::CoreConfig& c) {
  io("fetch_width", c.fetch_width);
  io("commit_width", c.commit_width);
  io("rob_entries", c.rob_entries);
  io("iq_entries", c.iq_entries);
  io("ldq_entries", c.ldq_entries);
  io("stq_entries", c.stq_entries);
  io("phys_regs", c.phys_regs);
  io("n_int_alu", c.n_int_alu);
  io("n_fp", c.n_fp);
  io("n_mem", c.n_mem);
  io("n_jmp", c.n_jmp);
  io("n_csr", c.n_csr);
  io("lat_int", c.lat_int);
  io("lat_mul", c.lat_mul);
  io("lat_div", c.lat_div);
  io("lat_fp", c.lat_fp);
  io("lat_fp_muldiv", c.lat_fp_muldiv);
  io("lat_jmp", c.lat_jmp);
  io("front_depth", c.front_depth);
  io("redirect_penalty", c.redirect_penalty);
  io("btb_bubble", c.btb_bubble);
  io("store_load_forwarding", c.store_load_forwarding);
  io("stlf_latency", c.stlf_latency);
  io("predictor", c.predictor);
}

template <class Io> void fields(Io& io, mem::HierarchyConfig& m) {
  io("l1i", m.l1i);
  io("l1d", m.l1d);
  io("l2", m.l2);
  io("llc", m.llc);
  io("dram_latency", m.dram_latency);
  io("itlb", m.itlb);
  io("dtlb", m.dtlb);
  io("detailed_dram", m.detailed_dram);
  io("dram", m.dram);
  io("detailed_ptw", m.detailed_ptw);
  io("ptw", m.ptw);
}

template <class Io> void fields(Io& io, core::FrontendConfig& f) {
  io("filter_width", f.filter.width);
  io("filter_fifo_depth", f.filter.fifo_depth);
  io("cdc_depth", f.cdc_depth);
  io("freq_ratio", f.freq_ratio);
  io("mapper_width", f.mapper_width);
}

template <class Io> void fields(Io& io, ucore::UCoreConfig& u) {
  io("msgq_depth", u.msgq_depth);
  io("isax_ma_stage", u.isax_ma_stage);
  io("postcommit_base", u.postcommit_base);
  io("postcommit_contention", u.postcommit_contention);
  io("postcommit_hazard", u.postcommit_hazard);
  io("dcache", u.dcache);
  io("icache", u.icache);
  io("utlb", u.utlb);
  io("l2_latency", u.l2_latency);
  io("mem_latency", u.mem_latency);
}

/// KernelParams minus text_lo/text_hi, which are DERIVED from the workload
/// image at session start (serializing them would freeze stale bounds).
template <class Io> void fields(Io& io, kernels::KernelParams& k) {
  io("shadow_base", k.shadow_base);
  io("shadow_timing_base", k.shadow_timing_base);
  io("sstack_base", k.sstack_base);
  io("quarantine_base", k.quarantine_base);
  io("quarantine_slots", k.quarantine_slots);
  io("unroll", k.unroll);
}

/// The numeric leaves; "name" is written and read by hand (it rebases).
template <class Io> void fields(Io& io, trace::WorkloadProfile& p) {
  io("f_load", p.f_load);
  io("f_store", p.f_store);
  io("f_fp", p.f_fp);
  io("f_muldiv", p.f_muldiv);
  io("f_branch", p.f_branch);
  io("f_call", p.f_call);
  io("f_hard_branch", p.f_hard_branch);
  io("n_funcs", p.n_funcs);
  io("blocks_per_func", p.blocks_per_func);
  io("block_len", p.block_len);
  io("loop_frac", p.loop_frac);
  io("mean_trips", p.mean_trips);
  io("ptr_chase", p.ptr_chase);
  io("m_stack", p.m_stack);
  io("m_global", p.m_global);
  io("m_heap", p.m_heap);
  io("m_stream", p.m_stream);
  io("stream_footprint", p.stream_footprint);
  io("stream_revisit", p.stream_revisit);
  io("global_hot_words", p.global_hot_words);
  io("allocs_per_kinst", p.allocs_per_kinst);
  io("mean_alloc_size", p.mean_alloc_size);
  io("live_target", p.live_target);
}

/// Plus "profile" and "attacks", by hand.
template <class Io> void fields(Io& io, trace::WorkloadConfig& wl) {
  io("seed", wl.seed);
  io("n_insts", wl.n_insts);
  io("warmup_insts", wl.warmup_insts);
}

/// One workload.attacks[] entry; its "kind" is read by hand.
struct AttackCount {
  u32 count = 1;
};

template <class Io> void fields(Io& io, AttackCount& a) {
  io("count", a.count);
}

/// Plus the enum strings "kind", "model" and "policy", by hand.
template <class Io> void fields(Io& io, KernelDeployment& d) {
  io("engines", d.n_engines);
  io("ha", d.use_ha);
}

/// Plus the "kernels" array, by hand; warm_regions is derived per session.
template <class Io> void fields(Io& io, SocConfig& sc) {
  io("core", sc.core);
  io("mem", sc.mem);
  io("frontend", sc.frontend);
  io("ucore", sc.ucore);
  io("kparams", sc.kparams);
  io("engine_l2", sc.engine_l2);
  io("noc_hop_latency", sc.noc_hop_latency);
  io("max_fast_cycles", sc.max_fast_cycles);
  io("fast_ghz", sc.fast_ghz);
  io("warmup_insts", sc.warmup_insts);
}

// -- the walkers ------------------------------------------------------------

template <class T>
Value to_json(const T& s);

struct Writer {
  Value v = Value::object();
  template <class T> void operator()(const char* k, const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      v.set(k, Value::of_bool(x));
    } else if constexpr (std::is_floating_point_v<T>) {
      v.set(k, Value::of_double(x));
    } else if constexpr (std::is_integral_v<T>) {
      v.set(k, Value::of(static_cast<u64>(x)));
    } else {
      v.set(k, to_json(x));
    }
  }
};

template <class T>
Value to_json(const T& s) {
  Writer w;
  fields(w, const_cast<T&>(s));  // the writer only reads
  return std::move(w.v);
}

bool fail(std::string* err, const std::string& path, const std::string& why) {
  if (err != nullptr) *err = path + ": " + why;
  return false;
}

/// One leaf, strictly: a bool takes only true/false, a double any number,
/// an integer only an integer that fits its C++ type.
template <class T>
bool read_leaf(const Value& e, const std::string& path, const char* k, T* x,
               std::string* err) {
  const auto bad = [&](const std::string& why) {
    return fail(err, path + "." + k, why);
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (e.kind != Value::Kind::kBool) return bad("expected true or false");
    *x = e.b;
  } else if constexpr (std::is_floating_point_v<T>) {
    if (e.kind != Value::Kind::kNumber) return bad("expected a number");
    *x = e.is_float ? e.dbl : static_cast<double>(e.num);
  } else {
    constexpr u64 kMax = static_cast<u64>(std::numeric_limits<T>::max());
    if (e.kind != Value::Kind::kNumber || e.is_float) {
      return bad("expected an integer");
    }
    if (e.num > kMax) {
      return bad(std::to_string(e.num) + " is out of range (max " +
                 std::to_string(kMax) + ")");
    }
    *x = static_cast<T>(e.num);
  }
  return true;
}

/// Does `k` name an entry of T's field list?
struct Names {
  const std::string& k;
  bool hit = false;
  template <class T> void operator()(const char* name, T&) {
    hit = hit || k == name;
  }
};

template <class T>
bool read_fields(const Value& v, const std::string& path, T* out,
                 std::string* err,
                 std::initializer_list<const char*> by_hand = {});

struct Reader {
  const Value& v;
  const std::string& path;
  std::string* err;
  size_t used = 0;
  bool ok = true;
  template <class T> void operator()(const char* k, T& x) {
    if (!ok) return;
    const auto it = v.obj.find(k);
    if (it == v.obj.end()) return;
    ++used;
    if constexpr (std::is_arithmetic_v<T>) {
      ok = read_leaf(it->second, path, k, &x, err);
    } else {
      ok = read_fields(it->second, path + "." + k, &x, err);
    }
  }
};

/// Overrides the fields of `*out` present in `v`. Every key of `v` must be
/// one of T's fields or one of `by_hand` (which the caller reads itself).
template <class T>
bool read_fields(const Value& v, const std::string& path, T* out,
                 std::string* err, std::initializer_list<const char*> by_hand) {
  if (!v.is_object()) return fail(err, path, "expected an object");
  Reader r{v, path, err};
  fields(r, *out);
  if (!r.ok) return false;
  for (const char* k : by_hand) r.used += v.obj.count(k);
  if (r.used == v.obj.size()) return true;
  for (const auto& [k, e] : v.obj) {
    (void)e;
    Names n{k};
    fields(n, *out);
    for (const char* h : by_hand) n.hit = n.hit || k == h;
    if (!n.hit) return fail(err, path, "unknown key \"" + k + "\"");
  }
  return true;
}

/// The string at `v[k]` ("" when absent); false when present but not a
/// string.
bool read_str(const Value& v, const std::string& path, const char* k,
              std::string* out, std::string* err) {
  const Value* e = v.get(k);
  out->clear();
  if (e == nullptr) return true;
  if (e->kind != Value::Kind::kString) {
    return fail(err, path + "." + k, "expected a string");
  }
  *out = e->str;
  return true;
}

/// Finds the integer or bool leaf at a dotted path through the field lists.
struct Finder {
  std::string_view path;
  std::optional<FieldRef> hit = std::nullopt;
  template <class T> void operator()(const char* k, T& x) {
    const size_t n = std::strlen(k);
    if (hit || path.substr(0, n) != k) return;
    if constexpr (std::is_integral_v<T>) {
      if (path.size() == n) hit = &x;
    } else if constexpr (std::is_class_v<T>) {
      if (path.size() > n && path[n] == '.') {
        Finder sub{path.substr(n + 1)};
        fields(sub, x);
        hit = sub.hit;
      }
    }
  }
};

Value profile_to_json(const trace::WorkloadProfile& p) {
  Value v = to_json(p);
  v.set("name", Value::of_str(p.name));
  return v;
}

bool profile_from_json(const Value& v, trace::WorkloadProfile* out,
                       std::string* err) {
  // A known name rebases on the library profile, so a spec can say just
  // {"name": "x264"}; unknown names are custom profiles built field by
  // field on top of the current base.
  const std::string path = "workload.profile";
  std::string name;
  if (!read_str(v, path, "name", &name, err)) return false;
  if (!name.empty()) {
    if (const trace::WorkloadProfile* known = trace::find_profile(name)) {
      *out = *known;
    } else {
      out->name = name;
    }
  }
  return read_fields(v, path, out, err, {"name"});
}

/// `*out` = the enum named by the string at `v[k]`, when one is given.
template <class E, class Out>
bool read_enum(const Value& v, const char* k,
               std::optional<E> (*from_name)(const std::string&), Out* out,
               std::string* err) {
  std::string s;
  if (!read_str(v, "soc.kernels[]", k, &s, err)) return false;
  if (s.empty()) return true;
  const std::optional<E> e = from_name(s);
  if (!e) {
    return fail(err, "soc.kernels[]",
                std::string("unknown ") + k + " \"" + s + "\"");
  }
  *out = *e;
  return true;
}

Value deployment_to_json(const KernelDeployment& d) {
  Value v = to_json(d);
  v.set("kind", Value::of_str(kernels::kernel_name(d.kind)));
  v.set("model", Value::of_str(kernels::prog_model_name(d.model)));
  // "policy" present IFF the default policy is overridden — parsing the
  // export reproduces (policy, policy_overridden) exactly, and a
  // hand-written spec cannot produce the inconsistent (set, false) state.
  if (d.policy_overridden) {
    v.set("policy", Value::of_str(core::sched_policy_name(d.policy)));
  }
  return v;
}

bool deployment_from_json(const Value& v, KernelDeployment* out,
                          std::string* err) {
  if (!read_fields(v, "soc.kernels[]", out, err,
                   {"kind", "model", "policy"})) {
    return false;
  }
  std::optional<core::SchedPolicy> policy;
  if (!read_enum(v, "kind", kernel_kind_from_name, &out->kind, err) ||
      !read_enum(v, "model", prog_model_from_name, &out->model, err) ||
      !read_enum(v, "policy", sched_policy_from_name, &policy, err)) {
    return false;
  }
  // Explicit policy assignment always sets the override flag with it.
  if (policy) {
    out->policy = *policy;
    out->policy_overridden = true;
  }
  return true;
}

}  // namespace

// --- enum maps -----------------------------------------------------------

std::optional<kernels::KernelKind> kernel_kind_from_name(
    const std::string& n) {
  using kernels::KernelKind;
  for (const KernelKind k : {KernelKind::kPmc, KernelKind::kShadowStack,
                             KernelKind::kAsan, KernelKind::kUaf}) {
    if (n == kernels::kernel_name(k)) return k;
  }
  // Short CLI spellings, accepted on input for ergonomics.
  if (n == "shadow" || n == "ss") return KernelKind::kShadowStack;
  return std::nullopt;
}

std::optional<kernels::ProgModel> prog_model_from_name(const std::string& n) {
  using kernels::ProgModel;
  for (const ProgModel m : {ProgModel::kConventional, ProgModel::kDuff,
                            ProgModel::kUnrolled, ProgModel::kHybrid}) {
    if (n == kernels::prog_model_name(m)) return m;
  }
  return std::nullopt;
}

std::optional<core::SchedPolicy> sched_policy_from_name(const std::string& n) {
  using core::SchedPolicy;
  for (const SchedPolicy p :
       {SchedPolicy::kFixed, SchedPolicy::kRoundRobin, SchedPolicy::kBlock}) {
    if (n == core::sched_policy_name(p)) return p;
  }
  return std::nullopt;
}

std::optional<trace::AttackKind> attack_kind_from_name(const std::string& n) {
  using trace::AttackKind;
  for (const AttackKind k :
       {AttackKind::kPcHijack, AttackKind::kRetCorrupt, AttackKind::kHeapOob,
        AttackKind::kUseAfterFree}) {
    if (n == trace::attack_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::optional<baseline::SwScheme> sw_scheme_from_name(const std::string& n) {
  using baseline::SwScheme;
  for (const SwScheme s : {SwScheme::kShadowStackLlvm, SwScheme::kAsanAarch64,
                           SwScheme::kAsanX8664, SwScheme::kDangSan}) {
    if (n == baseline::sw_scheme_name(s)) return s;
  }
  // Short CLI spellings (the legacy `fgsim run --software` values).
  if (n == "shadow_llvm") return SwScheme::kShadowStackLlvm;
  if (n == "asan_x86") return SwScheme::kAsanX8664;
  if (n == "dangsan") return SwScheme::kDangSan;
  return std::nullopt;
}

// --- workload ------------------------------------------------------------

json::Value workload_to_json(const trace::WorkloadConfig& wl) {
  Value v = to_json(wl);
  v.set("profile", profile_to_json(wl.profile));
  Value attacks = Value::array();
  for (const auto& [kind, count] : wl.attacks) {
    Value a = to_json(AttackCount{count});
    a.set("kind", Value::of_str(trace::attack_kind_name(kind)));
    attacks.push(std::move(a));
  }
  v.set("attacks", std::move(attacks));
  return v;
}

bool workload_from_json(const json::Value& v, trace::WorkloadConfig* out,
                        std::string* err) {
  if (!read_fields(v, "workload", out, err, {"profile", "attacks"})) {
    return false;
  }
  if (const Value* p = v.get("profile")) {
    if (!profile_from_json(*p, &out->profile, err)) return false;
  }
  if (const Value* a = v.get("attacks")) {
    const std::string path = "workload.attacks[]";
    if (!a->is_array()) {
      return fail(err, "workload.attacks", "expected an array");
    }
    out->attacks.clear();
    for (const Value& e : a->arr) {
      AttackCount c;
      std::string kind_s;
      if (!read_fields(e, path, &c, err, {"kind"}) ||
          !read_str(e, path, "kind", &kind_s, err)) {
        return false;
      }
      const std::optional<trace::AttackKind> kind =
          attack_kind_from_name(kind_s);
      if (!kind) return fail(err, path, "unknown kind \"" + kind_s + "\"");
      out->attacks.emplace_back(*kind, c.count);
    }
  }
  return true;
}

// --- SoC -----------------------------------------------------------------

json::Value soc_to_json(const SocConfig& sc) {
  Value v = to_json(sc);
  Value kernels_v = Value::array();
  for (const KernelDeployment& d : sc.kernels) {
    kernels_v.push(deployment_to_json(d));
  }
  v.set("kernels", std::move(kernels_v));
  return v;
}

bool soc_from_json(const json::Value& v, SocConfig* out, std::string* err) {
  if (!read_fields(v, "soc", out, err, {"kernels"})) return false;
  if (const Value* ks = v.get("kernels")) {
    if (!ks->is_array()) return fail(err, "soc.kernels", "expected an array");
    out->kernels.clear();
    for (const Value& e : ks->arr) {
      KernelDeployment d;
      if (!deployment_from_json(e, &d, err)) return false;
      out->kernels.push_back(d);
    }
  }
  return true;
}

std::optional<FieldRef> find_field(trace::WorkloadConfig* wl, SocConfig* sc,
                                   std::string_view path) {
  Finder f{path};
  f("workload", *wl);
  f("soc", *sc);
  return f.hit;
}

std::string baseline_subspec_json(const trace::WorkloadConfig& wl,
                                  const SocConfig& sc) {
  // Everything run_baseline_cycles reads, and nothing it does not: the
  // trace stream (attacks inject real instructions) and the full core +
  // memory configuration. Frontend/engine/kernel knobs are deliberately
  // absent so FireGuard-side sweeps share one baseline per (workload, core,
  // mem) point.
  Value v = Value::object();
  v.set("schema", Value::of_str("fireguard/baseline_key/v1"));
  v.set("workload", workload_to_json(wl));
  v.set("core", to_json(sc.core));
  v.set("mem", to_json(sc.mem));
  v.set("max_fast_cycles", Value::of(sc.max_fast_cycles));
  return json::dump(v);
}

}  // namespace fg::soc
