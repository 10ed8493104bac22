#include "src/store/faultfs.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/common/env.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace fg::store {

namespace {

struct FaultState {
  std::mutex mu;
  FaultConfig cfg;
  bool configured = false;   // set by fault_configure/fault_clear
  bool env_loaded = false;   // FG_FAULT auto-load happened
  std::atomic<bool> active{false};
  std::atomic<u64> ops[std::tuple_size_v<FaultOps>] = {};  // per FaultSite
};

FaultState& state() {
  static FaultState s;
  return s;
}

/// splitmix64: deterministic per-(seed, site, ordinal) Bernoulli hash for
/// probabilistic rules — no stream state, so concurrent sites can't skew
/// each other's draws.
u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void load_env_locked(FaultState& s) {
  if (s.configured || s.env_loaded) return;
  s.env_loaded = true;
  const char* v = std::getenv("FG_FAULT");
  if (v == nullptr || *v == '\0') return;
  FaultConfig cfg;
  std::string err;
  if (!parse_fault_spec(v, &cfg, &err)) {
    std::fprintf(stderr,
                 "FATAL: environment variable FG_FAULT=\"%s\" is malformed: "
                 "%s. Unset it or fix the value.\n",
                 v, err.c_str());
    std::abort();
  }
  s.cfg = std::move(cfg);
  s.active.store(!s.cfg.rules.empty(), std::memory_order_release);
}

/// The rule (if any) firing for the `ordinal`-th op at `site` (1-based for
/// fs sites). Returns the first matching rule in declaration order.
std::optional<FaultRule> match(FaultSite site, u64 ordinal) {
  FaultState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  load_env_locked(s);
  for (const FaultRule& r : s.cfg.rules) {
    if (r.site != site) continue;
    if (r.percent > 0) {
      const u64 h = mix64(s.cfg.seed ^ (static_cast<u64>(site) << 56) ^
                          ordinal);
      if (h % 100 < r.percent) return r;
    } else if (ordinal >= r.nth && ordinal < r.nth + r.times) {
      return r;
    }
  }
  return std::nullopt;
}

u64 next_ordinal(FaultSite site) {
  return 1 + state().ops[static_cast<size_t>(site)].fetch_add(
                 1, std::memory_order_relaxed);
}

[[noreturn]] void injected_crash(FaultSite site, u64 ordinal) {
  std::fprintf(stderr, "FG_FAULT: injected crash at %s op %llu\n",
               fault_site_name(site), static_cast<unsigned long long>(ordinal));
  std::fflush(stderr);
  std::_Exit(kFaultCrashExit);
}

void injected_hang(u64 ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool fail_with(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool parse_clause(const std::string& clause, FaultConfig* out,
                  std::string* err) {
  if (clause.rfind("seed=", 0) == 0) {
    const std::optional<u64> seed = parse_u64_strict(clause.c_str() + 5);
    if (!seed) return fail_with(err, "bad seed in \"" + clause + "\"");
    out->seed = *seed;
    return true;
  }
  const size_t at = clause.find('@');
  const size_t colon = clause.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos || colon < at) {
    return fail_with(err, "expected kind@site:when in \"" + clause + "\"");
  }
  FaultRule r;
  const std::string kind = clause.substr(0, at);
  if (kind == "torn") r.kind = FaultKind::kTorn;
  else if (kind == "enospc") r.kind = FaultKind::kEnospc;
  else if (kind == "renamefail") r.kind = FaultKind::kRenameFail;
  else if (kind == "crash") r.kind = FaultKind::kCrash;
  else if (kind == "hang") r.kind = FaultKind::kHang;
  else if (kind == "fail") r.kind = FaultKind::kFail;
  else return fail_with(err, "unknown fault kind \"" + kind + "\"");

  const std::string site = clause.substr(at + 1, colon - at - 1);
  if (site == "write") r.site = FaultSite::kWrite;
  else if (site == "rename") r.site = FaultSite::kRename;
  else if (site == "read") r.site = FaultSite::kRead;
  else if (site == "point") r.site = FaultSite::kPoint;
  else return fail_with(err, "unknown fault site \"" + site + "\"");

  std::string when = clause.substr(colon + 1);
  if (when.empty()) return fail_with(err, "empty when in \"" + clause + "\"");
  if (when[0] == 'p') {
    const std::optional<u64> pct = parse_u64_strict(when.c_str() + 1);
    if (!pct || *pct == 0 || *pct > 100) {
      return fail_with(err, "bad percent in \"" + clause + "\"");
    }
    r.percent = static_cast<u32>(*pct);
  } else {
    // nth [x times] [: hang_ms]
    const size_t ms_at = when.find(':');
    if (ms_at != std::string::npos) {
      const std::optional<u64> ms = parse_u64_strict(when.c_str() + ms_at + 1);
      if (!ms) return fail_with(err, "bad hang_ms in \"" + clause + "\"");
      r.hang_ms = *ms;
      when.resize(ms_at);
    }
    const size_t x_at = when.find('x');
    if (x_at != std::string::npos) {
      const std::optional<u64> times = parse_u64_strict(when.c_str() + x_at + 1);
      if (!times || *times == 0 || *times > 0xffff'ffffull) {
        return fail_with(err, "bad times in \"" + clause + "\"");
      }
      r.times = static_cast<u32>(*times);
      when.resize(x_at);
    }
    const std::optional<u64> nth = parse_u64_strict(when.c_str());
    if (!nth) return fail_with(err, "bad op ordinal in \"" + clause + "\"");
    r.nth = *nth;
  }
  out->rules.push_back(r);
  return true;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTorn: return "torn";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kRenameFail: return "renamefail";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kFail: return "fail";
  }
  return "?";
}

const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kWrite: return "write";
    case FaultSite::kRename: return "rename";
    case FaultSite::kRead: return "read";
    case FaultSite::kPoint: return "point";
  }
  return "?";
}

bool parse_fault_spec(const std::string& text, FaultConfig* out,
                      std::string* err) {
  *out = FaultConfig{};
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string clause =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (clause.empty()) {
      return fail_with(err, "empty clause (doubled or trailing comma)");
    }
    if (!parse_clause(clause, out, err)) return false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

void fault_configure(const FaultConfig& cfg) {
  FaultState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.cfg = cfg;
  s.configured = true;
  for (auto& c : s.ops) c.store(0, std::memory_order_relaxed);
  s.active.store(!cfg.rules.empty(), std::memory_order_release);
}

void fault_clear() { fault_configure(FaultConfig{}); }

FaultOps fault_ops() {
  FaultOps out{};
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = state().ops[i].load(std::memory_order_relaxed);
  }
  return out;
}

void set_fault_ops(const FaultOps& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    state().ops[i].store(ops[i], std::memory_order_relaxed);
  }
}

bool faults_active() {
  // First call probes FG_FAULT (strict parse, loud abort on malformed
  // text) so env-configured fs faults arm before the first filesystem op,
  // not only after the first point_fault() consult.
  static const bool env_probed = [] {
    FaultState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    load_env_locked(s);
    return true;
  }();
  (void)env_probed;
  return state().active.load(std::memory_order_acquire);
}

std::optional<PointFault> point_fault(u64 point_index, u32 attempt) {
  FaultState& s = state();
  {
    // Ensure FG_FAULT is loaded even if no fs op ran yet.
    std::lock_guard<std::mutex> lock(s.mu);
    load_env_locked(s);
  }
  if (!faults_active()) return std::nullopt;
  std::lock_guard<std::mutex> lock(s.mu);
  for (const FaultRule& r : s.cfg.rules) {
    if (r.site != FaultSite::kPoint) continue;
    if (r.percent > 0) {
      if (attempt == 0 &&
          mix64(s.cfg.seed ^ 0xf001'0000'0000'0000ull ^ point_index) % 100 <
              r.percent) {
        return PointFault{r.kind, r.hang_ms};
      }
    } else if (point_index == r.nth && attempt < r.times) {
      return PointFault{r.kind, r.hang_ms};
    }
  }
  return std::nullopt;
}

bool read_file(const std::string& path, std::string* out, std::string* err) {
  out->clear();
  if (faults_active()) {
    const u64 n = next_ordinal(FaultSite::kRead);
    if (const auto r = match(FaultSite::kRead, n)) {
      if (r->kind == FaultKind::kCrash) injected_crash(FaultSite::kRead, n);
      if (r->kind == FaultKind::kHang) injected_hang(r->hang_ms);
      if (r->kind != FaultKind::kHang) {
        return fail_with(err, "injected read fault (" +
                                  std::string(fault_kind_name(r->kind)) + ")");
      }
    }
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return fail_with(err, "cannot read " + path + ": " + std::strerror(errno));
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    return fail_with(err, "read error on " + path);
  }
  return true;
}

bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* err) {
  std::optional<FaultRule> injected;
  u64 ordinal = 0;
  if (faults_active()) {
    ordinal = next_ordinal(FaultSite::kWrite);
    injected = match(FaultSite::kWrite, ordinal);
    if (injected && injected->kind == FaultKind::kHang) {
      injected_hang(injected->hang_ms);
      injected.reset();  // hang, then succeed
    }
  }
  // Unique temp sibling: pid + a global counter, so concurrent publishers
  // of the same entry never collide on the temp name, and the final rename
  // is the single atomic commit point.
  static std::atomic<u64> temp_seq{0};
  const u64 seq = temp_seq.fetch_add(1, std::memory_order_relaxed);
#if defined(_WIN32)
  const u64 pid = 0;
#else
  const u64 pid = static_cast<u64>(::getpid());
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(seq);
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return fail_with(err, "cannot write " + tmp + ": " + std::strerror(errno));
  }
  size_t to_write = content.size();
  if (injected && injected->kind == FaultKind::kTorn) to_write /= 2;
  if (injected && injected->kind == FaultKind::kEnospc) to_write /= 3;
  if (to_write > 0 && std::fwrite(content.data(), 1, to_write, f) != to_write) {
    std::fclose(f);
    remove_file(tmp);
    return fail_with(err, "short write on " + tmp);
  }
  if (injected && injected->kind == FaultKind::kTorn) {
    // A torn write is a crash frozen mid-write: the truncated temp file
    // stays behind (the store must never pick it up) and the publish fails.
    std::fclose(f);
    return fail_with(err, "injected torn write (truncated temp left at " +
                              tmp + ")");
  }
  if (injected && injected->kind == FaultKind::kEnospc) {
    std::fclose(f);
    remove_file(tmp);
    return fail_with(err, "injected ENOSPC writing " + path);
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    remove_file(tmp);
    return fail_with(err, "flush failed on " + tmp);
  }
#if !defined(_WIN32)
  // fsync before rename: the rename must never be durable before the data.
  if (::fsync(::fileno(f)) != 0) {
    std::fclose(f);
    remove_file(tmp);
    return fail_with(err, "fsync failed on " + tmp);
  }
#endif
  std::fclose(f);
  if (injected && injected->kind == FaultKind::kCrash) {
    // The worst instant: data durable in the temp, rename not yet issued.
    injected_crash(FaultSite::kWrite, ordinal);
  }
  if (injected && (injected->kind == FaultKind::kRenameFail ||
                   injected->kind == FaultKind::kFail)) {
    remove_file(tmp);
    return fail_with(err, "injected rename failure publishing " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    remove_file(tmp);
    return fail_with(err, "rename " + tmp + " -> " + path + ": " + reason);
  }
  return true;
}

bool rename_file(const std::string& from, const std::string& to,
                 std::string* err) {
  if (faults_active()) {
    const u64 n = next_ordinal(FaultSite::kRename);
    if (const auto r = match(FaultSite::kRename, n)) {
      if (r->kind == FaultKind::kCrash) injected_crash(FaultSite::kRename, n);
      if (r->kind == FaultKind::kHang) {
        injected_hang(r->hang_ms);
      } else {
        return fail_with(err, "injected rename fault (" +
                                  std::string(fault_kind_name(r->kind)) + ")");
      }
    }
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return fail_with(err,
                     "rename " + from + " -> " + to + ": " + std::strerror(errno));
  }
  return true;
}

bool remove_file(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

bool make_dirs(const std::string& path, std::string* err) {
  if (path.empty()) return fail_with(err, "empty directory path");
  std::string prefix;
  prefix.reserve(path.size());
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    prefix = path.substr(0, slash == std::string::npos ? path.size() : slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
#if defined(_WIN32)
    const int rc = ::_mkdir(prefix.c_str());
#else
    const int rc = ::mkdir(prefix.c_str(), 0777);
#endif
    if (rc != 0 && errno != EEXIST) {
      return fail_with(err,
                       "mkdir " + prefix + ": " + std::strerror(errno));
    }
    struct stat st{};
    if (::stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      return fail_with(err, prefix + " exists and is not a directory");
    }
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace fg::store
