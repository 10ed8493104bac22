// Carry-forward loader for the `"runs": [ ... ]` history array that
// `fgsim speed` appends to BENCH_sim_speed.json (schema fireguard/
// sim_speed/v5; v2–v4 histories read identically — the loader is
// text-level and the record helpers skip fields a record lacks).
// Factored out of the tool so the append path is unit-testable
// and so --check can distinguish "no history file" (a CI misconfiguration
// that must fail loudly) from "history present" — silently starting a fresh
// history used to make a missing/unreadable file exit 0 and erase the
// trajectory the gate exists to track.
#pragma once

#include <string>
#include <vector>

namespace fg {

enum class HistoryStatus {
  kOk,        // file read and a runs[] array extracted (possibly empty)
  kMissing,   // file absent or unreadable
  kMalformed, // file read but no "runs": [ ... ] array found
};

const char* history_status_name(HistoryStatus s);

/// Reads `path` and extracts the comma-joined items of its `"runs"` array
/// into `*items` (empty string for an empty array). Text-level extraction:
/// the file is `fgsim speed`'s own output format. On kMissing/kMalformed, *items
/// is cleared.
HistoryStatus load_runs_history(const std::string& path, std::string* items);

/// Appends `run_record` (one JSON object, no trailing comma) to a history
/// item string, returning the new comma-joined item list.
std::string append_run_record(const std::string& items,
                              const std::string& run_record);

/// Splits a comma-joined history item string back into individual run
/// records (top-level `{...}` objects; brace depth is tracked so nested
/// arrays — e.g. the v3 skip-length histogram — don't split a record).
/// The inverse of repeated append_run_record.
std::vector<std::string> split_run_records(const std::string& items);

/// Reads the numeric value of `"key"` from one run record. Returns false
/// when the key is absent — the v2→v3 migration contract: a v3 reader walks
/// a mixed history and simply skips records that predate a field, it never
/// misparses or rejects them.
bool run_record_number(const std::string& record, const std::string& key,
                       double* out);

/// Reads a true/false value of `"key"` from one run record; false (with
/// `*out` untouched) when absent or not a bool literal.
bool run_record_flag(const std::string& record, const std::string& key,
                     bool* out);

/// Move a malformed history file aside to `path + ".corrupt"` (replacing a
/// previous quarantine of the same path) so a fresh history can start
/// without destroying the evidence. Returns the quarantine path, or "" when
/// the move failed. Callers must report the move loudly — silent recovery
/// from a corrupt history erases the trajectory the file exists to track.
std::string quarantine_history(const std::string& path);

}  // namespace fg
