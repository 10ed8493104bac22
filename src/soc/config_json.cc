#include "src/soc/config_json.h"

#include "src/trace/profile.h"

namespace fg::soc {

namespace {

using json::Value;

// -- tiny field helpers: `put` writes, `rd` overrides-if-present ----------
void put(Value& o, const char* k, u64 v) { o.set(k, Value::of(v)); }
void put_u(Value& o, const char* k, u32 v) { o.set(k, Value::of(v)); }
void put_i(Value& o, const char* k, int v) {
  o.set(k, Value::of(static_cast<u64>(v)));
}
void put_d(Value& o, const char* k, double v) {
  o.set(k, Value::of_double(v));
}
void put_b(Value& o, const char* k, bool v) { o.set(k, Value::of_bool(v)); }

void rd(const Value& v, const char* k, u64* out) { *out = v.get_u64(k, *out); }
void rd(const Value& v, const char* k, u32* out) {
  *out = static_cast<u32>(v.get_u64(k, *out));
}
void rd(const Value& v, const char* k, int* out) {
  *out = static_cast<int>(v.get_u64(k, static_cast<u64>(*out)));
}
void rd(const Value& v, const char* k, double* out) {
  *out = v.get_double(k, *out);
}
void rd(const Value& v, const char* k, bool* out) {
  *out = v.get_bool(k, *out);
}

/// Typo guard: every key in `v` must exist in `model` (a fully-populated
/// to_json of the same type), so the accepted schema IS the emitted schema.
bool reject_unknown(const Value& v, const Value& model, const char* ctx,
                    std::string* err) {
  if (!v.is_object()) {
    if (err != nullptr) *err = std::string(ctx) + ": expected an object";
    return false;
  }
  for (const auto& [k, e] : v.obj) {
    (void)e;
    if (model.obj.find(k) == model.obj.end()) {
      if (err != nullptr) {
        *err = std::string(ctx) + ": unknown key \"" + k + "\"";
      }
      return false;
    }
  }
  return true;
}

// -- leaf config objects --------------------------------------------------
Value cache_to_json(const mem::CacheConfig& c) {
  Value v = Value::object();
  put_u(v, "size_bytes", c.size_bytes);
  put_u(v, "ways", c.ways);
  put_u(v, "line_bytes", c.line_bytes);
  put_u(v, "hit_latency", c.hit_latency);
  put_u(v, "mshrs", c.mshrs);
  put_u(v, "writeback_penalty", c.writeback_penalty);
  return v;
}

bool cache_from_json(const Value& v, mem::CacheConfig* out, const char* ctx,
                     std::string* err) {
  if (!reject_unknown(v, cache_to_json(*out), ctx, err)) return false;
  rd(v, "size_bytes", &out->size_bytes);
  rd(v, "ways", &out->ways);
  rd(v, "line_bytes", &out->line_bytes);
  rd(v, "hit_latency", &out->hit_latency);
  rd(v, "mshrs", &out->mshrs);
  rd(v, "writeback_penalty", &out->writeback_penalty);
  return true;
}

Value tlb_to_json(const mem::TlbConfig& t) {
  Value v = Value::object();
  put_u(v, "entries", t.entries);
  put_u(v, "page_bytes", t.page_bytes);
  put_u(v, "walk_latency", t.walk_latency);
  return v;
}

bool tlb_from_json(const Value& v, mem::TlbConfig* out, const char* ctx,
                   std::string* err) {
  if (!reject_unknown(v, tlb_to_json(*out), ctx, err)) return false;
  rd(v, "entries", &out->entries);
  rd(v, "page_bytes", &out->page_bytes);
  rd(v, "walk_latency", &out->walk_latency);
  return true;
}

Value dram_to_json(const mem::DramConfig& d) {
  Value v = Value::object();
  put_u(v, "n_banks", d.n_banks);
  put_u(v, "row_bytes", d.row_bytes);
  put_u(v, "t_cas", d.t_cas);
  put_u(v, "t_rcd", d.t_rcd);
  put_u(v, "t_rp", d.t_rp);
  put_u(v, "burst_cycles", d.burst_cycles);
  put_u(v, "max_requests", d.max_requests);
  return v;
}

bool dram_from_json(const Value& v, mem::DramConfig* out, std::string* err) {
  if (!reject_unknown(v, dram_to_json(*out), "soc.mem.dram", err)) return false;
  rd(v, "n_banks", &out->n_banks);
  rd(v, "row_bytes", &out->row_bytes);
  rd(v, "t_cas", &out->t_cas);
  rd(v, "t_rcd", &out->t_rcd);
  rd(v, "t_rp", &out->t_rp);
  rd(v, "burst_cycles", &out->burst_cycles);
  rd(v, "max_requests", &out->max_requests);
  return true;
}

Value ptw_to_json(const mem::PtwConfig& p) {
  Value v = Value::object();
  put_u(v, "levels", p.levels);
  put_u(v, "page_bits", p.page_bits);
  put_u(v, "index_bits", p.index_bits);
  put(v, "root_base", p.root_base);
  put_u(v, "walker_overhead", p.walker_overhead);
  return v;
}

bool ptw_from_json(const Value& v, mem::PtwConfig* out, std::string* err) {
  if (!reject_unknown(v, ptw_to_json(*out), "soc.mem.ptw", err)) return false;
  rd(v, "levels", &out->levels);
  rd(v, "page_bits", &out->page_bits);
  rd(v, "index_bits", &out->index_bits);
  rd(v, "root_base", &out->root_base);
  rd(v, "walker_overhead", &out->walker_overhead);
  return true;
}

Value predictor_to_json(const boom::PredictorConfig& p) {
  Value v = Value::object();
  put_u(v, "bimodal_entries", p.bimodal_entries);
  put_u(v, "tage_tables", p.tage_tables);
  put_u(v, "tage_entries", p.tage_entries);
  put_u(v, "min_history", p.min_history);
  put_u(v, "max_history", p.max_history);
  put_u(v, "btb_entries", p.btb_entries);
  put_u(v, "ras_entries", p.ras_entries);
  return v;
}

bool predictor_from_json(const Value& v, boom::PredictorConfig* out,
                         std::string* err) {
  if (!reject_unknown(v, predictor_to_json(*out), "soc.core.predictor", err)) {
    return false;
  }
  rd(v, "bimodal_entries", &out->bimodal_entries);
  rd(v, "tage_tables", &out->tage_tables);
  rd(v, "tage_entries", &out->tage_entries);
  rd(v, "min_history", &out->min_history);
  rd(v, "max_history", &out->max_history);
  rd(v, "btb_entries", &out->btb_entries);
  rd(v, "ras_entries", &out->ras_entries);
  return true;
}

Value core_to_json(const boom::CoreConfig& c) {
  Value v = Value::object();
  put_u(v, "fetch_width", c.fetch_width);
  put_u(v, "commit_width", c.commit_width);
  put_u(v, "rob_entries", c.rob_entries);
  put_u(v, "iq_entries", c.iq_entries);
  put_u(v, "ldq_entries", c.ldq_entries);
  put_u(v, "stq_entries", c.stq_entries);
  put_u(v, "phys_regs", c.phys_regs);
  put_u(v, "n_int_alu", c.n_int_alu);
  put_u(v, "n_fp", c.n_fp);
  put_u(v, "n_mem", c.n_mem);
  put_u(v, "n_jmp", c.n_jmp);
  put_u(v, "n_csr", c.n_csr);
  put_u(v, "lat_int", c.lat_int);
  put_u(v, "lat_mul", c.lat_mul);
  put_u(v, "lat_div", c.lat_div);
  put_u(v, "lat_fp", c.lat_fp);
  put_u(v, "lat_fp_muldiv", c.lat_fp_muldiv);
  put_u(v, "lat_jmp", c.lat_jmp);
  put_u(v, "front_depth", c.front_depth);
  put_u(v, "redirect_penalty", c.redirect_penalty);
  put_u(v, "btb_bubble", c.btb_bubble);
  put_b(v, "store_load_forwarding", c.store_load_forwarding);
  put_u(v, "stlf_latency", c.stlf_latency);
  v.set("predictor", predictor_to_json(c.predictor));
  return v;
}

bool core_from_json(const Value& v, boom::CoreConfig* out, std::string* err) {
  if (!reject_unknown(v, core_to_json(*out), "soc.core", err)) return false;
  rd(v, "fetch_width", &out->fetch_width);
  rd(v, "commit_width", &out->commit_width);
  rd(v, "rob_entries", &out->rob_entries);
  rd(v, "iq_entries", &out->iq_entries);
  rd(v, "ldq_entries", &out->ldq_entries);
  rd(v, "stq_entries", &out->stq_entries);
  rd(v, "phys_regs", &out->phys_regs);
  rd(v, "n_int_alu", &out->n_int_alu);
  rd(v, "n_fp", &out->n_fp);
  rd(v, "n_mem", &out->n_mem);
  rd(v, "n_jmp", &out->n_jmp);
  rd(v, "n_csr", &out->n_csr);
  rd(v, "lat_int", &out->lat_int);
  rd(v, "lat_mul", &out->lat_mul);
  rd(v, "lat_div", &out->lat_div);
  rd(v, "lat_fp", &out->lat_fp);
  rd(v, "lat_fp_muldiv", &out->lat_fp_muldiv);
  rd(v, "lat_jmp", &out->lat_jmp);
  rd(v, "front_depth", &out->front_depth);
  rd(v, "redirect_penalty", &out->redirect_penalty);
  rd(v, "btb_bubble", &out->btb_bubble);
  rd(v, "store_load_forwarding", &out->store_load_forwarding);
  rd(v, "stlf_latency", &out->stlf_latency);
  if (const Value* p = v.get("predictor")) {
    if (!predictor_from_json(*p, &out->predictor, err)) return false;
  }
  return true;
}

Value mem_to_json(const mem::HierarchyConfig& m) {
  Value v = Value::object();
  v.set("l1i", cache_to_json(m.l1i));
  v.set("l1d", cache_to_json(m.l1d));
  v.set("l2", cache_to_json(m.l2));
  v.set("llc", cache_to_json(m.llc));
  put_u(v, "dram_latency", m.dram_latency);
  v.set("itlb", tlb_to_json(m.itlb));
  v.set("dtlb", tlb_to_json(m.dtlb));
  put_b(v, "detailed_dram", m.detailed_dram);
  v.set("dram", dram_to_json(m.dram));
  put_b(v, "detailed_ptw", m.detailed_ptw);
  v.set("ptw", ptw_to_json(m.ptw));
  return v;
}

bool mem_from_json(const Value& v, mem::HierarchyConfig* out,
                   std::string* err) {
  if (!reject_unknown(v, mem_to_json(*out), "soc.mem", err)) return false;
  struct CacheField {
    const char* key;
    mem::CacheConfig* dst;
  };
  for (const CacheField f : {CacheField{"l1i", &out->l1i},
                             CacheField{"l1d", &out->l1d},
                             CacheField{"l2", &out->l2},
                             CacheField{"llc", &out->llc}}) {
    if (const Value* c = v.get(f.key)) {
      if (!cache_from_json(*c, f.dst, f.key, err)) return false;
    }
  }
  rd(v, "dram_latency", &out->dram_latency);
  if (const Value* t = v.get("itlb")) {
    if (!tlb_from_json(*t, &out->itlb, "soc.mem.itlb", err)) return false;
  }
  if (const Value* t = v.get("dtlb")) {
    if (!tlb_from_json(*t, &out->dtlb, "soc.mem.dtlb", err)) return false;
  }
  rd(v, "detailed_dram", &out->detailed_dram);
  if (const Value* d = v.get("dram")) {
    if (!dram_from_json(*d, &out->dram, err)) return false;
  }
  rd(v, "detailed_ptw", &out->detailed_ptw);
  if (const Value* p = v.get("ptw")) {
    if (!ptw_from_json(*p, &out->ptw, err)) return false;
  }
  return true;
}

Value frontend_to_json(const core::FrontendConfig& f) {
  Value v = Value::object();
  put_u(v, "filter_width", f.filter.width);
  put_u(v, "filter_fifo_depth", f.filter.fifo_depth);
  put_u(v, "cdc_depth", f.cdc_depth);
  put_u(v, "freq_ratio", f.freq_ratio);
  put_u(v, "mapper_width", f.mapper_width);
  return v;
}

bool frontend_from_json(const Value& v, core::FrontendConfig* out,
                        std::string* err) {
  if (!reject_unknown(v, frontend_to_json(*out), "soc.frontend", err)) {
    return false;
  }
  rd(v, "filter_width", &out->filter.width);
  rd(v, "filter_fifo_depth", &out->filter.fifo_depth);
  rd(v, "cdc_depth", &out->cdc_depth);
  rd(v, "freq_ratio", &out->freq_ratio);
  rd(v, "mapper_width", &out->mapper_width);
  return true;
}

Value ucore_to_json(const ucore::UCoreConfig& u) {
  Value v = Value::object();
  put_u(v, "msgq_depth", u.msgq_depth);
  put_b(v, "isax_ma_stage", u.isax_ma_stage);
  put_u(v, "postcommit_base", u.postcommit_base);
  put_u(v, "postcommit_contention", u.postcommit_contention);
  put_u(v, "postcommit_hazard", u.postcommit_hazard);
  v.set("dcache", cache_to_json(u.dcache));
  v.set("icache", cache_to_json(u.icache));
  v.set("utlb", tlb_to_json(u.utlb));
  put_u(v, "l2_latency", u.l2_latency);
  put_u(v, "mem_latency", u.mem_latency);
  return v;
}

bool ucore_from_json(const Value& v, ucore::UCoreConfig* out,
                     std::string* err) {
  if (!reject_unknown(v, ucore_to_json(*out), "soc.ucore", err)) return false;
  rd(v, "msgq_depth", &out->msgq_depth);
  rd(v, "isax_ma_stage", &out->isax_ma_stage);
  rd(v, "postcommit_base", &out->postcommit_base);
  rd(v, "postcommit_contention", &out->postcommit_contention);
  rd(v, "postcommit_hazard", &out->postcommit_hazard);
  if (const Value* c = v.get("dcache")) {
    if (!cache_from_json(*c, &out->dcache, "soc.ucore.dcache", err)) {
      return false;
    }
  }
  if (const Value* c = v.get("icache")) {
    if (!cache_from_json(*c, &out->icache, "soc.ucore.icache", err)) {
      return false;
    }
  }
  if (const Value* t = v.get("utlb")) {
    if (!tlb_from_json(*t, &out->utlb, "soc.ucore.utlb", err)) return false;
  }
  rd(v, "l2_latency", &out->l2_latency);
  rd(v, "mem_latency", &out->mem_latency);
  return true;
}

/// KernelParams minus text_lo/text_hi, which are DERIVED from the workload
/// image at session start (serializing them would freeze stale bounds).
Value kparams_to_json(const kernels::KernelParams& k) {
  Value v = Value::object();
  put(v, "shadow_base", k.shadow_base);
  put(v, "shadow_timing_base", k.shadow_timing_base);
  put(v, "sstack_base", k.sstack_base);
  put(v, "quarantine_base", k.quarantine_base);
  put_u(v, "quarantine_slots", k.quarantine_slots);
  put_u(v, "unroll", k.unroll);
  return v;
}

bool kparams_from_json(const Value& v, kernels::KernelParams* out,
                       std::string* err) {
  if (!reject_unknown(v, kparams_to_json(*out), "soc.kparams", err)) {
    return false;
  }
  rd(v, "shadow_base", &out->shadow_base);
  rd(v, "shadow_timing_base", &out->shadow_timing_base);
  rd(v, "sstack_base", &out->sstack_base);
  rd(v, "quarantine_base", &out->quarantine_base);
  rd(v, "quarantine_slots", &out->quarantine_slots);
  rd(v, "unroll", &out->unroll);
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

json::Value profile_to_json(const trace::WorkloadProfile& p) {
  Value v = Value::object();
  v.set("name", Value::of_str(p.name));
  put_d(v, "f_load", p.f_load);
  put_d(v, "f_store", p.f_store);
  put_d(v, "f_fp", p.f_fp);
  put_d(v, "f_muldiv", p.f_muldiv);
  put_d(v, "f_branch", p.f_branch);
  put_d(v, "f_call", p.f_call);
  put_d(v, "f_hard_branch", p.f_hard_branch);
  put_i(v, "n_funcs", p.n_funcs);
  put_i(v, "blocks_per_func", p.blocks_per_func);
  put_i(v, "block_len", p.block_len);
  put_d(v, "loop_frac", p.loop_frac);
  put_d(v, "mean_trips", p.mean_trips);
  put_d(v, "ptr_chase", p.ptr_chase);
  put_d(v, "m_stack", p.m_stack);
  put_d(v, "m_global", p.m_global);
  put_d(v, "m_heap", p.m_heap);
  put_d(v, "m_stream", p.m_stream);
  put(v, "stream_footprint", p.stream_footprint);
  put_d(v, "stream_revisit", p.stream_revisit);
  put_u(v, "global_hot_words", p.global_hot_words);
  put_d(v, "allocs_per_kinst", p.allocs_per_kinst);
  put_u(v, "mean_alloc_size", p.mean_alloc_size);
  put_u(v, "live_target", p.live_target);
  return v;
}

bool profile_from_json(const json::Value& v, trace::WorkloadProfile* out,
                       std::string* err) {
  if (!reject_unknown(v, profile_to_json(*out), "workload.profile", err)) {
    return false;
  }
  // A known name rebases on the library profile, so a spec can say just
  // {"name": "x264"}; unknown names are custom profiles built field by
  // field on top of the current base.
  const std::string name = v.get_str("name");
  if (!name.empty()) {
    if (const trace::WorkloadProfile* known = trace::find_profile(name)) {
      *out = *known;
    } else {
      out->name = name;
    }
  }
  rd(v, "f_load", &out->f_load);
  rd(v, "f_store", &out->f_store);
  rd(v, "f_fp", &out->f_fp);
  rd(v, "f_muldiv", &out->f_muldiv);
  rd(v, "f_branch", &out->f_branch);
  rd(v, "f_call", &out->f_call);
  rd(v, "f_hard_branch", &out->f_hard_branch);
  rd(v, "n_funcs", &out->n_funcs);
  rd(v, "blocks_per_func", &out->blocks_per_func);
  rd(v, "block_len", &out->block_len);
  rd(v, "loop_frac", &out->loop_frac);
  rd(v, "mean_trips", &out->mean_trips);
  rd(v, "ptr_chase", &out->ptr_chase);
  rd(v, "m_stack", &out->m_stack);
  rd(v, "m_global", &out->m_global);
  rd(v, "m_heap", &out->m_heap);
  rd(v, "m_stream", &out->m_stream);
  rd(v, "stream_footprint", &out->stream_footprint);
  rd(v, "stream_revisit", &out->stream_revisit);
  rd(v, "global_hot_words", &out->global_hot_words);
  rd(v, "allocs_per_kinst", &out->allocs_per_kinst);
  rd(v, "mean_alloc_size", &out->mean_alloc_size);
  rd(v, "live_target", &out->live_target);
  return true;
}

json::Value workload_to_json(const trace::WorkloadConfig& wl) {
  Value v = Value::object();
  v.set("profile", profile_to_json(wl.profile));
  put(v, "seed", wl.seed);
  put(v, "n_insts", wl.n_insts);
  put(v, "warmup_insts", wl.warmup_insts);
  Value attacks = Value::array();
  for (const auto& [kind, count] : wl.attacks) {
    Value a = Value::object();
    a.set("kind", Value::of_str(trace::attack_kind_name(kind)));
    put_u(a, "count", count);
    attacks.push(std::move(a));
  }
  v.set("attacks", std::move(attacks));
  return v;
}

bool workload_from_json(const json::Value& v, trace::WorkloadConfig* out,
                        std::string* err) {
  if (!reject_unknown(v, workload_to_json(*out), "workload", err)) {
    return false;
  }
  if (const Value* p = v.get("profile")) {
    if (!profile_from_json(*p, &out->profile, err)) return false;
  }
  rd(v, "seed", &out->seed);
  rd(v, "n_insts", &out->n_insts);
  rd(v, "warmup_insts", &out->warmup_insts);
  if (const Value* a = v.get("attacks")) {
    if (!a->is_array()) {
      if (err != nullptr) *err = "workload.attacks: expected an array";
      return false;
    }
    out->attacks.clear();
    for (const Value& e : a->arr) {
      const std::optional<trace::AttackKind> kind =
          attack_kind_from_name(e.get_str("kind"));
      if (!kind) {
        if (err != nullptr) {
          *err = "workload.attacks: unknown kind \"" + e.get_str("kind") + "\"";
        }
        return false;
      }
      out->attacks.emplace_back(*kind,
                                static_cast<u32>(e.get_u64("count", 1)));
    }
  }
  return true;
}

// --- SoC -----------------------------------------------------------------

json::Value deployment_to_json(const KernelDeployment& d) {
  Value v = Value::object();
  v.set("kind", Value::of_str(kernels::kernel_name(d.kind)));
  put_u(v, "engines", d.n_engines);
  put_b(v, "ha", d.use_ha);
  v.set("model", Value::of_str(kernels::prog_model_name(d.model)));
  // "policy" present IFF the default policy is overridden — parsing the
  // export reproduces (policy, policy_overridden) exactly, and a
  // hand-written spec cannot produce the inconsistent (set, false) state.
  if (d.policy_overridden) {
    v.set("policy", Value::of_str(core::sched_policy_name(d.policy)));
  }
  return v;
}

bool deployment_from_json(const json::Value& v, KernelDeployment* out,
                          std::string* err) {
  KernelDeployment model_src;
  model_src.policy_overridden = true;  // make "policy" a known key
  if (!reject_unknown(v, deployment_to_json(model_src), "soc.kernels[]",
                      err)) {
    return false;
  }
  const std::string kind = v.get_str("kind");
  if (!kind.empty()) {
    const std::optional<kernels::KernelKind> k = kernel_kind_from_name(kind);
    if (!k) {
      if (err != nullptr) {
        *err = "soc.kernels[]: unknown kind \"" + kind + "\"";
      }
      return false;
    }
    out->kind = *k;
  }
  rd(v, "engines", &out->n_engines);
  rd(v, "ha", &out->use_ha);
  const std::string model = v.get_str("model");
  if (!model.empty()) {
    const std::optional<kernels::ProgModel> m = prog_model_from_name(model);
    if (!m) {
      if (err != nullptr) {
        *err = "soc.kernels[]: unknown model \"" + model + "\"";
      }
      return false;
    }
    out->model = *m;
  }
  const std::string policy = v.get_str("policy");
  if (!policy.empty()) {
    const std::optional<core::SchedPolicy> p = sched_policy_from_name(policy);
    if (!p) {
      if (err != nullptr) {
        *err = "soc.kernels[]: unknown policy \"" + policy + "\"";
      }
      return false;
    }
    // Explicit policy assignment always sets the override flag with it.
    out->policy = *p;
    out->policy_overridden = true;
  }
  return true;
}

json::Value soc_to_json(const SocConfig& sc) {
  Value v = Value::object();
  v.set("core", core_to_json(sc.core));
  v.set("mem", mem_to_json(sc.mem));
  v.set("frontend", frontend_to_json(sc.frontend));
  v.set("ucore", ucore_to_json(sc.ucore));
  v.set("kparams", kparams_to_json(sc.kparams));
  Value kernels_v = Value::array();
  for (const KernelDeployment& d : sc.kernels) {
    kernels_v.push(deployment_to_json(d));
  }
  v.set("kernels", std::move(kernels_v));
  v.set("engine_l2", cache_to_json(sc.engine_l2));
  put_u(v, "noc_hop_latency", sc.noc_hop_latency);
  put(v, "max_fast_cycles", sc.max_fast_cycles);
  put_d(v, "fast_ghz", sc.fast_ghz);
  put(v, "warmup_insts", sc.warmup_insts);
  return v;
}

bool soc_from_json(const json::Value& v, SocConfig* out, std::string* err) {
  if (!reject_unknown(v, soc_to_json(*out), "soc", err)) return false;
  if (const Value* c = v.get("core")) {
    if (!core_from_json(*c, &out->core, err)) return false;
  }
  if (const Value* m = v.get("mem")) {
    if (!mem_from_json(*m, &out->mem, err)) return false;
  }
  if (const Value* f = v.get("frontend")) {
    if (!frontend_from_json(*f, &out->frontend, err)) return false;
  }
  if (const Value* u = v.get("ucore")) {
    if (!ucore_from_json(*u, &out->ucore, err)) return false;
  }
  if (const Value* k = v.get("kparams")) {
    if (!kparams_from_json(*k, &out->kparams, err)) return false;
  }
  if (const Value* ks = v.get("kernels")) {
    if (!ks->is_array()) {
      if (err != nullptr) *err = "soc.kernels: expected an array";
      return false;
    }
    out->kernels.clear();
    for (const Value& e : ks->arr) {
      KernelDeployment d;
      if (!deployment_from_json(e, &d, err)) return false;
      out->kernels.push_back(d);
    }
  }
  if (const Value* e = v.get("engine_l2")) {
    if (!cache_from_json(*e, &out->engine_l2, "soc.engine_l2", err)) {
      return false;
    }
  }
  rd(v, "noc_hop_latency", &out->noc_hop_latency);
  rd(v, "max_fast_cycles", &out->max_fast_cycles);
  rd(v, "fast_ghz", &out->fast_ghz);
  rd(v, "warmup_insts", &out->warmup_insts);
  return true;
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
  v.set("core", core_to_json(sc.core));
  v.set("mem", mem_to_json(sc.mem));
  put(v, "max_fast_cycles", sc.max_fast_cycles);
  return json::dump(v);
}

}  // namespace fg::soc
