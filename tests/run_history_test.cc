// The `fgsim speed` runs[] history loader: missing / malformed files are
// distinguished from valid ones (the --check gate fails loudly on the
// former), and the schema-v2 append path round-trips across "invocations".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/run_history.h"

namespace fg {
namespace {

std::string temp_file(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// A minimal but realistic schema-v2 file, as `fgsim speed` writes it.
std::string v2_file(const std::string& runs_items) {
  return "{\n  \"schema\": \"fireguard/sim_speed/v2\",\n  \"quick\": false,\n"
         "  \"runs\": [\n    " +
         runs_items + "\n  ]\n}\n";
}

TEST(RunHistory, MissingFileIsMissing) {
  std::string items = "sentinel";
  EXPECT_EQ(load_runs_history(temp_file("fg_no_such_file.json"), &items),
            HistoryStatus::kMissing);
  EXPECT_EQ(items, "");  // cleared on failure
}

TEST(RunHistory, FileWithoutRunsArrayIsMalformed) {
  const std::string path = temp_file("fg_hist_malformed.json");
  write_file(path, "{\n  \"schema\": \"fireguard/sim_speed/v2\"\n}\n");
  std::string items = "sentinel";
  EXPECT_EQ(load_runs_history(path, &items), HistoryStatus::kMalformed);
  EXPECT_EQ(items, "");
  std::filesystem::remove(path);
}

TEST(RunHistory, EmptyRunsArrayIsOkAndEmpty) {
  const std::string path = temp_file("fg_hist_empty.json");
  write_file(path, "{\n  \"runs\": [\n  ]\n}\n");
  std::string items;
  EXPECT_EQ(load_runs_history(path, &items), HistoryStatus::kOk);
  EXPECT_EQ(items, "");
  std::filesystem::remove(path);
}

TEST(RunHistory, SchemaV2AppendPathRoundTrips) {
  const std::string path = temp_file("fg_hist_append.json");
  const std::string run1 = "{\"date\": \"2026-01-01T00:00:00Z\", \"n\": 1}";
  const std::string run2 = "{\"date\": \"2026-02-02T00:00:00Z\", \"n\": 2}";

  // Invocation 1: no prior history, write run1.
  write_file(path, v2_file(append_run_record("", run1)));
  std::string items;
  ASSERT_EQ(load_runs_history(path, &items), HistoryStatus::kOk);
  EXPECT_EQ(items, run1);

  // Invocation 2: carry run1 forward, append run2.
  write_file(path, v2_file(append_run_record(items, run2)));
  ASSERT_EQ(load_runs_history(path, &items), HistoryStatus::kOk);
  EXPECT_NE(items.find("\"n\": 1"), std::string::npos);
  EXPECT_NE(items.find("\"n\": 2"), std::string::npos);
  // Order preserved: run1 before run2.
  EXPECT_LT(items.find("\"n\": 1"), items.find("\"n\": 2"));

  // Invocation 3: the carried-forward list still parses (stability under
  // repeated append — the regression PR 4 guards against).
  const std::string run3 = "{\"date\": \"2026-03-03T00:00:00Z\", \"n\": 3}";
  write_file(path, v2_file(append_run_record(items, run3)));
  ASSERT_EQ(load_runs_history(path, &items), HistoryStatus::kOk);
  EXPECT_LT(items.find("\"n\": 2"), items.find("\"n\": 3"));
  std::filesystem::remove(path);
}

// --- v2 → v3 migration ----------------------------------------------------
//
// Schema v3 widens each run record with per-kernel speedups and a
// skip-length histogram array. The history file is carried forward
// text-level, so a v3 `fgsim speed` reads mixed histories: old v2 records (no
// new fields) followed by v3 records (with them). These regressions pin the
// migration contract: records split correctly even with nested arrays,
// fields absent from v2 records are *skipped* (not misparsed), and the
// trajectory gate's field extraction works on both generations.

namespace {

const char kV2Record[] =
    "{\"date\": \"2026-07-26T17:34:00Z\", \"quick\": false, "
    "\"trace_len\": 150000, \"pmc_cycles_per_sec\": 4524851, "
    "\"event_speedup_pmc\": 1.048, \"sweep_speedup\": 1.140, "
    "\"bit_identical\": true}";

const char kV3Record[] =
    "{\"date\": \"2026-08-08T00:00:00Z\", \"quick\": false, "
    "\"trace_len\": 150000, \"pmc_cycles_per_sec\": 5100000, "
    "\"event_speedup_pmc\": 1.102, \"event_speedup_asan\": 1.031, "
    "\"event_speedup_memstall\": 1.870, "
    "\"skip_len_hist\": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], "
    "\"bit_identical\": true}";

}  // namespace

TEST(RunHistory, SplitHandlesMixedV2V3Records) {
  const std::string items = append_run_record(kV2Record, kV3Record);
  const std::vector<std::string> recs = split_run_records(items);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0], kV2Record);
  // The nested histogram array must not split the v3 record.
  EXPECT_EQ(recs[1], kV3Record);
}

TEST(RunHistory, SplitOfEmptyHistoryIsEmpty) {
  EXPECT_TRUE(split_run_records("").empty());
}

TEST(RunHistory, V3FieldsAbsentFromV2RecordsAreSkippedNotMisparsed) {
  double v = -1.0;
  // Present in both generations.
  ASSERT_TRUE(run_record_number(kV2Record, "event_speedup_pmc", &v));
  EXPECT_DOUBLE_EQ(v, 1.048);
  ASSERT_TRUE(run_record_number(kV3Record, "event_speedup_pmc", &v));
  EXPECT_DOUBLE_EQ(v, 1.102);
  // v3-only fields: absent from the v2 record, found in the v3 one.
  EXPECT_FALSE(run_record_number(kV2Record, "event_speedup_memstall", &v));
  ASSERT_TRUE(run_record_number(kV3Record, "event_speedup_memstall", &v));
  EXPECT_DOUBLE_EQ(v, 1.870);
}

TEST(RunHistory, FlagExtractionWorksAcrossGenerations) {
  bool b = false;
  ASSERT_TRUE(run_record_flag(kV2Record, "bit_identical", &b));
  EXPECT_TRUE(b);
  ASSERT_TRUE(run_record_flag(kV3Record, "quick", &b));
  EXPECT_FALSE(b);
  // Absent key: untouched output, false return.
  b = true;
  EXPECT_FALSE(run_record_flag(kV2Record, "no_such_flag", &b));
  EXPECT_TRUE(b);
  // A key whose value is not a bool literal is not a flag.
  EXPECT_FALSE(run_record_flag(kV3Record, "trace_len", &b));
}

TEST(RunHistory, MixedHistoryRoundTripsThroughFileAndBack) {
  const std::string path = temp_file("fg_hist_v2v3.json");
  write_file(path, v2_file(append_run_record(kV2Record, kV3Record)));
  std::string items;
  ASSERT_EQ(load_runs_history(path, &items), HistoryStatus::kOk);
  const std::vector<std::string> recs = split_run_records(items);
  ASSERT_EQ(recs.size(), 2u);
  double v = 0.0;
  EXPECT_FALSE(run_record_number(recs[0], "event_speedup_asan", &v));
  EXPECT_TRUE(run_record_number(recs[1], "event_speedup_asan", &v));
  EXPECT_DOUBLE_EQ(v, 1.031);
  std::filesystem::remove(path);
}

// --- v3 → v4 migration ----------------------------------------------------
//
// Schema v4 widens each run record with per-kernel pipeline speedups (the
// since-removed two-thread scheduler vs the serial event loop). Same contract
// as v2→v3: mixed histories split cleanly, v4-only fields are skipped (not
// misparsed) on older records, and the extraction the trajectory gate uses
// works on every generation.

namespace {

const char kV4Record[] =
    "{\"date\": \"2026-08-08T12:00:00Z\", \"quick\": false, "
    "\"trace_len\": 150000, \"pmc_cycles_per_sec\": 5200000, "
    "\"event_speedup_pmc\": 1.110, \"event_speedup_asan\": 1.040, "
    "\"event_speedup_memstall\": 1.902, "
    "\"pipeline_speedup_pmc\": 1.310, \"pipeline_speedup_asan\": 1.420, "
    "\"pipeline_speedup_memstall\": 1.150, "
    "\"skip_len_hist\": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "
    "\"sweep_speedup\": 1.210, \"bit_identical\": true}";

}  // namespace

TEST(RunHistory, SplitHandlesMixedV2V3V4Records) {
  const std::string items =
      append_run_record(append_run_record(kV2Record, kV3Record), kV4Record);
  const std::vector<std::string> recs = split_run_records(items);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], kV2Record);
  EXPECT_EQ(recs[1], kV3Record);
  // The nested histogram array must not split the v4 record either.
  EXPECT_EQ(recs[2], kV4Record);
}

TEST(RunHistory, V4FieldsAbsentFromOlderRecordsAreSkippedNotMisparsed) {
  double v = -1.0;
  // Shared fields still read from every generation.
  ASSERT_TRUE(run_record_number(kV4Record, "event_speedup_pmc", &v));
  EXPECT_DOUBLE_EQ(v, 1.110);
  // v4-only fields: absent from v2 and v3 records, found in the v4 one.
  EXPECT_FALSE(run_record_number(kV2Record, "pipeline_speedup_pmc", &v));
  EXPECT_FALSE(run_record_number(kV3Record, "pipeline_speedup_pmc", &v));
  ASSERT_TRUE(run_record_number(kV4Record, "pipeline_speedup_pmc", &v));
  EXPECT_DOUBLE_EQ(v, 1.310);
  ASSERT_TRUE(run_record_number(kV4Record, "pipeline_speedup_memstall", &v));
  EXPECT_DOUBLE_EQ(v, 1.150);
}

TEST(RunHistory, V4TrajectoryExtractionSkipsOtherGenerations) {
  // The `fgsim speed --check` gate walks the whole history and takes the best
  // same-mode value of a field; records predating the field contribute
  // nothing. Mirror that walk over a three-generation history.
  const std::string items =
      append_run_record(append_run_record(kV2Record, kV3Record), kV4Record);
  double best = 0.0;
  int readable = 0;
  for (const std::string& rec : split_run_records(items)) {
    double v = 0.0;
    if (run_record_number(rec, "pipeline_speedup_asan", &v)) {
      best = std::max(best, v);
      ++readable;
    }
  }
  EXPECT_EQ(readable, 1);
  EXPECT_DOUBLE_EQ(best, 1.420);
}

TEST(RunHistory, StatusNamesAreStable) {
  EXPECT_STREQ(history_status_name(HistoryStatus::kOk), "ok");
  EXPECT_STREQ(history_status_name(HistoryStatus::kMissing), "missing");
  EXPECT_STREQ(history_status_name(HistoryStatus::kMalformed), "malformed");
}

// --- corrupt-history quarantine -------------------------------------------
//
// `fgsim speed` recovers from a malformed history by moving it aside (never
// silently overwriting the evidence) and starting fresh; these pin the
// quarantine helper that recovery rests on.

TEST(RunHistory, QuarantineMovesFileAside) {
  const std::string path = temp_file("fg_hist_quarantine.json");
  write_file(path, "truncated garb");
  const std::string dst = quarantine_history(path);
  EXPECT_EQ(dst, path + ".corrupt");
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(dst));
  // The evidence is preserved byte for byte.
  std::ifstream in(dst);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "truncated garb");
  std::filesystem::remove(dst);
}

TEST(RunHistory, QuarantineReplacesPreviousQuarantine) {
  const std::string path = temp_file("fg_hist_requarantine.json");
  write_file(path + ".corrupt", "older corruption");
  write_file(path, "newer corruption");
  EXPECT_EQ(quarantine_history(path), path + ".corrupt");
  std::ifstream in(path + ".corrupt");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "newer corruption");
  std::filesystem::remove(path + ".corrupt");
}

TEST(RunHistory, QuarantineOfMissingFileFailsCleanly) {
  EXPECT_EQ(quarantine_history(temp_file("fg_hist_never_existed.json")), "");
}

}  // namespace
}  // namespace fg
