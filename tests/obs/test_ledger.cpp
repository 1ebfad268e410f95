// Run-ledger guards (DESIGN.md §3.7): JSONL round-trip fidelity (including
// 64-bit-exact seeds/hashes and escaped strings), the bounded in-memory
// tail, file append/read, the backend::run stamping contract, and the
// regression diff against a committed BENCH_*.json — demonstrated with a
// synthetic slow record, the exact situation `ecsim_flow ledger diff` must
// turn into a nonzero exit.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/kind.hpp"
#include "blocks/examples.hpp"
#include "obs/ledger.hpp"

namespace ecsim::obs {
namespace {

LedgerRecord sample_record() {
  LedgerRecord r;
  r.ir_hash = "0x6c09e9a1787131f3";
  r.model = "chains_200";
  r.backend_requested = "native";
  r.backend_used = "native";
  r.fallback_reason = "";
  r.seed = 0x9e3779b97f4a7c15ULL;  // > 2^53: must survive exactly
  r.fault_plan_hash = 0xfeedfacecafebeefULL;
  r.threads = 8;
  r.wall_s = 0.01712345678901234;
  r.events = 601202;
  r.events_per_s = 35118337.123456789;
  r.metrics_json = "{\"counters\": {\"sim.events_dispatched\": 601202}}";
  return r;
}

/// `r` rendered with schema_version `version` instead of the current one.
std::string json_line_as_version(const LedgerRecord& r, int version) {
  std::string line = to_json_line(r);
  const std::string current = "\"schema_version\": 3";
  const auto pos = line.find(current);
  EXPECT_NE(pos, std::string::npos);
  line.replace(pos, current.size(),
               "\"schema_version\": " + std::to_string(version));
  return line;
}

/// A schema-v2 line as PR-8 builds wrote it: served_from_cache not yet
/// invented (to_json_line already omits it for non-service records), and
/// the since-removed Monte Carlo `trials_per_s` field present.
std::string v2_json_line(const LedgerRecord& r) {
  std::string line = json_line_as_version(r, 2);
  const std::string anchor = ", \"metrics\":";
  const auto pos = line.find(anchor);
  EXPECT_NE(pos, std::string::npos);
  line.insert(pos, ", \"trials_per_s\": 4321.0987654321");
  return line;
}

/// A schema-v1 line as PR-7 builds wrote it.
std::string v1_json_line(const LedgerRecord& r) {
  return json_line_as_version(r, 1);
}

TEST(LedgerRecord, JsonLineRoundTripIsExact) {
  const LedgerRecord r = sample_record();
  const std::string line = to_json_line(r);
  // One object per line: the serialized form must never embed a newline.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"schema_version\": 3"), std::string::npos);
  // Not a service record: the tri-state field stays out of the JSON.
  EXPECT_EQ(line.find("served_from_cache"), std::string::npos);

  LedgerRecord back;
  ASSERT_TRUE(parse_json_line(line, back));
  EXPECT_EQ(back.schema_version, r.schema_version);
  EXPECT_EQ(back.ir_hash, r.ir_hash);
  EXPECT_EQ(back.model, r.model);
  EXPECT_EQ(back.backend_requested, r.backend_requested);
  EXPECT_EQ(back.backend_used, r.backend_used);
  EXPECT_EQ(back.fallback_reason, r.fallback_reason);
  EXPECT_EQ(back.seed, r.seed);                        // bit-exact u64
  EXPECT_EQ(back.fault_plan_hash, r.fault_plan_hash);  // bit-exact u64
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_DOUBLE_EQ(back.wall_s, r.wall_s);
  EXPECT_EQ(back.events, r.events);
  EXPECT_DOUBLE_EQ(back.events_per_s, r.events_per_s);
  EXPECT_EQ(back.served_from_cache, -1);
  EXPECT_EQ(back.metrics_json, r.metrics_json);
}

TEST(LedgerRecord, ServedFromCacheTriStateRoundTrips) {
  for (int v : {0, 1}) {
    LedgerRecord r = sample_record();
    r.served_from_cache = v;
    const std::string line = to_json_line(r);
    EXPECT_NE(line.find("\"served_from_cache\": " + std::to_string(v)),
              std::string::npos);
    LedgerRecord back;
    ASSERT_TRUE(parse_json_line(line, back));
    EXPECT_EQ(back.served_from_cache, v);
  }
}

TEST(LedgerRecord, V1LinesStillParse) {
  const std::string v1 = v1_json_line(sample_record());
  LedgerRecord back;
  ASSERT_TRUE(parse_json_line(v1, back));
  EXPECT_EQ(back.schema_version, 1);
  EXPECT_EQ(back.model, "chains_200");
  EXPECT_EQ(back.seed, sample_record().seed);
  EXPECT_DOUBLE_EQ(back.events_per_s, sample_record().events_per_s);
}

TEST(Ledger, MixedV1V2V3FileRoundTrips) {
  // Ledgers are append-only: a PR-7 file continued through PR-8 and this
  // build holds all three schema versions, and every line must read back —
  // with the v3-only served_from_cache field absent (-1) on the old lines.
  const std::string path = ::testing::TempDir() + "ecsim_mixed_ledger.jsonl";
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    LedgerRecord v1 = sample_record();
    v1.model = "pr7-run";
    out << v1_json_line(v1) << '\n';
    LedgerRecord v2 = sample_record();
    v2.model = "pr8-run";
    out << v2_json_line(v2) << '\n';
    LedgerRecord v3 = sample_record();
    v3.model = "svc-run";
    v3.served_from_cache = 1;
    out << to_json_line(v3) << '\n';
  }
  const std::vector<LedgerRecord> got = read_ledger_file(path);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].schema_version, 1);
  EXPECT_EQ(got[0].model, "pr7-run");
  EXPECT_EQ(got[0].served_from_cache, -1);
  // The v2 line's trials_per_s is skipped; every other field reads back.
  EXPECT_EQ(got[1].schema_version, 2);
  EXPECT_EQ(got[1].model, "pr8-run");
  EXPECT_DOUBLE_EQ(got[1].events_per_s, sample_record().events_per_s);
  EXPECT_EQ(got[1].served_from_cache, -1);
  EXPECT_EQ(got[2].schema_version, 3);
  EXPECT_EQ(got[2].model, "svc-run");
  EXPECT_EQ(got[2].served_from_cache, 1);

  // The `ledger show --cache` aggregation over the same mixed file: only
  // tagged records enter the hit-rate denominator.
  const CacheSummary summary = summarize_cache(got);
  EXPECT_EQ(summary.served, 1u);
  EXPECT_EQ(summary.computed, 0u);
  EXPECT_EQ(summary.untagged, 2u);
  EXPECT_DOUBLE_EQ(summary.hit_rate(), 1.0);
  std::remove(path.c_str());
}

TEST(Ledger, SummarizeCacheAggregatesAndGuardsEmptyDenominator) {
  std::vector<LedgerRecord> records;
  const CacheSummary none = summarize_cache(records);
  EXPECT_DOUBLE_EQ(none.hit_rate(), 0.0);  // no tagged records: rate is 0

  for (int v : {1, 1, 1, 0, -1}) {
    LedgerRecord r = sample_record();
    r.served_from_cache = v;
    records.push_back(r);
  }
  const CacheSummary s = summarize_cache(records);
  EXPECT_EQ(s.served, 3u);
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.untagged, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.75);
}

TEST(LedgerRecord, EscapedStringsRoundTrip) {
  LedgerRecord r = sample_record();
  r.fallback_reason = "opaque: block \"weird\\name\"\nwith newline\tand tab";
  const std::string line = to_json_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  LedgerRecord back;
  ASSERT_TRUE(parse_json_line(line, back));
  EXPECT_EQ(back.fallback_reason, r.fallback_reason);
}

TEST(LedgerRecord, ParseRejectsGarbageAndUnknownSchema) {
  LedgerRecord out;
  EXPECT_FALSE(parse_json_line("", out));
  EXPECT_FALSE(parse_json_line("   ", out));
  EXPECT_FALSE(parse_json_line("not json at all", out));
  // A future schema is skipped, not misparsed.
  std::string future = to_json_line(sample_record());
  const auto pos = future.find("\"schema_version\": 3");
  ASSERT_NE(pos, std::string::npos);
  future.replace(pos, std::string("\"schema_version\": 3").size(),
                 "\"schema_version\": 99");
  EXPECT_FALSE(parse_json_line(future, out));
}

TEST(Ledger, InMemoryTailIsBoundedAndChronological) {
  Ledger ledger("", 4);
  for (int i = 0; i < 10; ++i) {
    LedgerRecord r = sample_record();
    r.events = static_cast<std::uint64_t>(i);
    ledger.append(r);
  }
  EXPECT_EQ(ledger.size(), 4u);
  const std::vector<LedgerRecord> tail = ledger.records();
  ASSERT_EQ(tail.size(), 4u);
  // Oldest-first: records 6, 7, 8, 9 survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].events,
              static_cast<std::uint64_t>(6 + i));
  }
}

TEST(Ledger, FileAppendAndReadBack) {
  const std::string path = ::testing::TempDir() + "ecsim_test_ledger.jsonl";
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    LedgerRecord a = sample_record();
    LedgerRecord b = sample_record();
    b.model = "servo";
    b.backend_used = "interp";
    b.fallback_reason = "toolchain: compiler not found";
    ledger.append(a);
    ledger.append(b);
  }
  // A second Ledger on the same path appends, never truncates.
  {
    Ledger ledger(path);
    LedgerRecord c = sample_record();
    c.model = "third";
    ledger.append(c);
  }
  const std::vector<LedgerRecord> got = read_ledger_file(path);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].model, "chains_200");
  EXPECT_EQ(got[1].model, "servo");
  EXPECT_EQ(got[1].fallback_reason, "toolchain: compiler not found");
  EXPECT_EQ(got[2].model, "third");
  std::remove(path.c_str());
}

TEST(Ledger, ReadMissingFileYieldsEmpty) {
  EXPECT_TRUE(read_ledger_file("/nonexistent/ecsim/ledger.jsonl").empty());
}

TEST(Ledger, UnwritablePathDegradesToInMemory) {
  Ledger ledger("/nonexistent-dir/ledger.jsonl", 8);
  ledger.append(sample_record());
  EXPECT_EQ(ledger.size(), 1u);  // run recording must never fail
}

// ---- the backend::run stamping contract ------------------------------------

TEST(Ledger, EveryBackendRunAppendsARecord) {
  using namespace ecsim;
  sim::Model m = blocks::examples::make_chains(2);
  Ledger& g = Ledger::global();
  const std::size_t before = g.size();

  backend::RunOptions o;
  o.kind = backend::Kind::kInterp;
  o.sim.end_time = 0.05;
  o.model_name = "ledger-test-interp";
  backend::RunResult r = backend::run(m, o);
  ASSERT_GT(g.size(), before);
  const std::vector<LedgerRecord> tail = g.records();
  const LedgerRecord& rec = tail.back();
  EXPECT_EQ(rec.model, "ledger-test-interp");
  EXPECT_EQ(rec.backend_requested, "interp");
  EXPECT_EQ(rec.backend_used, "interp");
  EXPECT_EQ(rec.events, r.events_dispatched);
  EXPECT_GT(rec.wall_s, 0.0);
  EXPECT_GT(rec.events_per_s, 0.0);
}

TEST(Ledger, NativeRunStampsIrHashAndFallbackStampsReason) {
  using namespace ecsim;
  sim::Model m = blocks::examples::make_chains(2);
  Ledger& g = Ledger::global();

  backend::RunOptions o;
  o.kind = backend::Kind::kNative;
  o.sim.end_time = 0.05;
  o.model_name = "ledger-test-native";
  backend::RunResult r = backend::run(m, o);
  ASSERT_EQ(r.used, backend::Kind::kNative)
      << "fell back: " << r.fallback_reason;
  {
    const LedgerRecord rec = g.records().back();
    EXPECT_EQ(rec.backend_used, "native");
    EXPECT_EQ(rec.fallback_reason, "");
    EXPECT_EQ(rec.ir_hash.substr(0, 2), "0x");
  }

  // Forced fallback still stamps — with the reason and the IR hash (the
  // model lowered fine; the toolchain was the problem).
  ::setenv("ECSIM_NATIVE_DISABLE", "1", 1);
  backend::RunResult f = backend::run(m, o);
  ::unsetenv("ECSIM_NATIVE_DISABLE");
  EXPECT_EQ(f.used, backend::Kind::kInterp);
  {
    const LedgerRecord rec = g.records().back();
    EXPECT_EQ(rec.backend_requested, "native");
    EXPECT_EQ(rec.backend_used, "interp");
    EXPECT_EQ(rec.fallback_reason.substr(0, 8), "disabled");
    EXPECT_EQ(rec.ir_hash.substr(0, 2), "0x");
  }
}

// ---- regression diff -------------------------------------------------------

std::string synthetic_bench_json(const std::string& ir_hash,
                                 double native_best) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"model_ir_hash_chains_200\": \"%s\",\n"
                "  \"codegen\": [\n"
                "    {\"scenario\": \"servo\", \"native_best_events_per_s\": "
                "1.0},\n"
                "    {\"scenario\": \"chains_200\", "
                "\"native_best_events_per_s\": %.17g}\n"
                "  ]\n"
                "}\n",
                ir_hash.c_str(), native_best);
  return buf;
}

TEST(LedgerDiffTest, FlagsSyntheticSlowRecordAsRegression) {
  const std::string bench = synthetic_bench_json("0xabc123", 1e6);
  LedgerRecord slow = sample_record();
  slow.ir_hash = "0xabc123";
  slow.events_per_s = 0.85e6;  // 15% below committed: beyond the 10% gate
  const LedgerDiff d =
      diff_latest_against_bench({slow}, bench, "chains_200", 10.0);
  EXPECT_TRUE(d.comparable);
  EXPECT_TRUE(d.regression);
  EXPECT_DOUBLE_EQ(d.committed_events_per_s, 1e6);
  EXPECT_DOUBLE_EQ(d.latest_events_per_s, 0.85e6);
  EXPECT_NE(d.message.find("REGRESSION"), std::string::npos);
}

TEST(LedgerDiffTest, PassesWithinThresholdAndUsesNewestMatch) {
  const std::string bench = synthetic_bench_json("0xabc123", 1e6);
  LedgerRecord old_slow = sample_record();
  old_slow.ir_hash = "0xabc123";
  old_slow.events_per_s = 0.5e6;
  LedgerRecord newer_ok = sample_record();
  newer_ok.ir_hash = "0xabc123";
  newer_ok.events_per_s = 0.95e6;  // 5% below: inside the 10% gate
  LedgerRecord unrelated = sample_record();
  unrelated.ir_hash = "0xother";
  unrelated.events_per_s = 1.0;
  // Newest matching record wins; trailing non-matching records are ignored.
  const LedgerDiff d = diff_latest_against_bench(
      {old_slow, newer_ok, unrelated}, bench, "chains_200", 10.0);
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.regression);
  EXPECT_DOUBLE_EQ(d.latest_events_per_s, 0.95e6);
}

TEST(LedgerDiffTest, NoMatchingRecordIsNotARegression) {
  const std::string bench = synthetic_bench_json("0xabc123", 1e6);
  LedgerRecord r = sample_record();
  r.ir_hash = "0xsomething-else";
  const LedgerDiff d = diff_latest_against_bench({r}, bench);
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.regression);
}

TEST(LedgerDiffTest, MissingScenarioInBenchIsNotComparable) {
  const LedgerDiff d = diff_latest_against_bench(
      {sample_record()}, "{\"unrelated\": 1}", "chains_200");
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.regression);
}

TEST(LedgerDiffTest, PerScenarioFiguresDoNotBleedAcrossEntries) {
  // chains_200's entry carries no committed figure at all; the servo entry
  // after it does. The lookup must not pick servo's figure up.
  const std::string bench =
      "{\n"
      "  \"model_ir_hash_chains_200\": \"0xc200\",\n"
      "  \"scenarios\": [\n"
      "    {\"scenario\": \"chains_200\"},\n"
      "    {\"scenario\": \"servo\", \"native_best_events_per_s\": 1.0}\n"
      "  ]\n"
      "}\n";
  const LedgerDiff d =
      diff_latest_against_bench({sample_record()}, bench, "chains_200");
  EXPECT_FALSE(d.comparable);
  EXPECT_FALSE(d.regression);
}

}  // namespace
}  // namespace ecsim::obs
