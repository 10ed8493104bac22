// Fault-injectable filesystem primitives for the durable result store.
//
// Every byte the store layer persists goes through the small set of
// primitives below (atomic temp+rename publish, whole-file read, rename,
// mkdir), so a single injection point can exercise every recovery path the
// store claims to have: torn writes, ENOSPC, failed renames, and a process
// crash at the worst possible instant (temp written, rename pending). The
// campaign runner additionally consults `point_fault` so hung and crashed
// simulation points are injectable too.
//
// Injection is controlled by the FG_FAULT environment variable (or
// programmatically via fault_configure), strict-parsed like FG_TRACE_LEN:
// a malformed spec is a loud, immediate abort, never a silently fault-free
// run. Grammar (clauses comma-separated):
//
//   FG_FAULT = clause[,clause...]
//   clause   = "seed=" u64                       seed for probabilistic rules
//            | kind "@" site ":" when
//   kind     = torn | enospc | renamefail | crash | hang | fail
//   site     = write | rename | read | point
//   when     = nth ["x" times] [":" hang_ms]     1-based op ordinal / point
//            | "p" percent                       seeded per-op probability
//
// Examples:
//   FG_FAULT=torn@write:3            third atomic write is torn (temp file
//                                    left truncated, publish fails)
//   FG_FAULT=crash@point:7           grid point 7 crashes on its first
//                                    attempt (retries run clean)
//   FG_FAULT=crash@point:7x99        ...and on every retry (a permafail)
//   FG_FAULT=hang@point:2:5000       point 2 hangs 5 s on attempt one
//   FG_FAULT=seed=42,enospc@write:p25  every write fails ENOSPC with
//                                    probability 25%, deterministic in 42
//
// Determinism: nth-based rules count operations in process-global order;
// probabilistic rules hash (seed, site, ordinal), so a given FG_FAULT value
// injects the identical fault sequence on every run of the same workload.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace fg::store {

enum class FaultKind : u8 { kTorn, kEnospc, kRenameFail, kCrash, kHang, kFail };
enum class FaultSite : u8 { kWrite, kRename, kRead, kPoint };

const char* fault_kind_name(FaultKind k);
const char* fault_site_name(FaultSite s);

struct FaultRule {
  FaultKind kind = FaultKind::kFail;
  FaultSite site = FaultSite::kWrite;
  /// 1-based op ordinal (write/rename/read sites) or 0-based grid point
  /// index (point site). Ignored when percent > 0.
  u64 nth = 0;
  /// Consecutive matching ops affected from nth on; for the point site,
  /// the number of attempts affected (1 = first attempt only, so the retry
  /// path is exercised and succeeds).
  u32 times = 1;
  /// When > 0: seeded Bernoulli per matching op instead of nth.
  u32 percent = 0;
  /// Sleep for kHang, in milliseconds.
  u64 hang_ms = 30'000;
};

struct FaultConfig {
  u64 seed = 0;
  std::vector<FaultRule> rules;
};

/// Parse the FG_FAULT grammar. Returns false with a message in *err on any
/// malformed clause (unknown kind/site, junk suffix, overflow).
bool parse_fault_spec(const std::string& text, FaultConfig* out,
                      std::string* err);

/// Install a fault table and reset the per-site op counters. Thread-safe.
void fault_configure(const FaultConfig& cfg);

/// Remove all rules and reset counters (tests call this in SetUp).
void fault_clear();

/// True when any rule is installed (cheap; the fast path for clean runs).
bool faults_active();

/// The per-site op ordinals consumed so far, indexed by FaultSite: the
/// counts a process forked now would inherit. A long-lived forked worker
/// installs its parent's counts before each attempt, so nth-rules fire in
/// the op a fresh fork of that moment would have reached.
using FaultOps = std::array<u64, static_cast<size_t>(FaultSite::kPoint) + 1>;
FaultOps fault_ops();
void set_fault_ops(const FaultOps& ops);

/// The fault (if any) armed for `point_index` at `attempt` (0-based). The
/// campaign runner consults this before executing a grid point.
struct PointFault {
  FaultKind kind = FaultKind::kFail;
  u64 hang_ms = 0;
};
std::optional<PointFault> point_fault(u64 point_index, u32 attempt);

// --- filesystem primitives (all fault-injectable) --------------------------
//
// On first use, the fault table self-initializes from FG_FAULT (strict
// parse, loud abort on malformed text) unless fault_configure/fault_clear
// ran first. All functions return false with a one-line reason in *err
// (when non-null); none throw.

/// Read the whole file into *out. kFail@read injects an I/O error.
bool read_file(const std::string& path, std::string* out, std::string* err);

/// Durable atomic publish: write to a unique temp sibling, flush + fsync,
/// rename over `path`. A crash (real or injected) at any instant leaves
/// either the old content or the new — never a mix. Injection points:
/// kTorn (truncated temp left behind, publish fails), kEnospc (partial
/// write, temp removed, fails), kRenameFail, kCrash (process exits between
/// temp write and rename), kHang (sleeps, then succeeds).
bool write_file_atomic(const std::string& path, const std::string& content,
                       std::string* err);

/// Rename with injection (kRenameFail / kCrash before the rename).
bool rename_file(const std::string& from, const std::string& to,
                 std::string* err);

/// Best-effort unlink (no injection; used for cleanup).
bool remove_file(const std::string& path);

/// mkdir -p. Returns false when a component exists as a non-directory or
/// creation fails.
bool make_dirs(const std::string& path, std::string* err);

bool file_exists(const std::string& path);

/// Exit code used by injected kCrash faults (recognizable in waitpid).
inline constexpr int kFaultCrashExit = 86;

}  // namespace fg::store
