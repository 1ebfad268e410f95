// Append-only run ledger (DESIGN.md §3.7): every backend::run stamps one
// JSONL record — what ran (IR hash, model name), how (backend requested /
// used, fallback reason, seed, fault-plan hash, thread count) and how fast
// (wall time, dispatched events, events/s, metrics snapshot) — so design
// iterations can be compared quantitatively after the fact instead of
// re-measured. The file format is one JSON object per line with a
// `schema_version` field; records are self-contained and the file is only
// ever appended to, so ledgers from different runs/machines concatenate
// trivially.
//
// Destination: the ECSIM_LEDGER environment variable names the JSONL file to
// append to (created on first record). Without it the ledger is in-memory
// only — a bounded ring of recent records, still inspectable in-process —
// so hot sweeps pay a mutex + a few string appends per run, never I/O.
//
// `diff_latest_against_bench` compares the newest comparable record against
// a committed BENCH_*.json events/s figure and flags regressions beyond a
// threshold; `ecsim_flow ledger show|diff` wraps it on the CLI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ecsim::obs {

/// Bump when LedgerRecord fields change shape; readers skip lines whose
/// schema_version they do not understand. Older versions this build still
/// parses are listed in kLedgerOldestReadableVersion.
///
/// v2: added `trials_per_s`, the throughput of a batched Monte Carlo
/// engine that has since been removed, and the field with it. v2/v3 lines
/// that still carry the field parse as before, with it ignored.
///
/// v3 (PR 9): adds `served_from_cache` — whether a sweep-service request was
/// answered entirely out of the daemon's result cache. The field is
/// tri-state and only WRITTEN when it applies (daemon-stamped records);
/// v1/v2 lines and non-service v3 lines parse with it absent (-1).
inline constexpr int kLedgerSchemaVersion = 3;
inline constexpr int kLedgerOldestReadableVersion = 1;

struct LedgerRecord {
  int schema_version = kLedgerSchemaVersion;
  /// Canonical IR hash ("0x…", ir::hash_hex) of the model that ran; empty
  /// when the run never lowered to IR (plain interpreter requests).
  std::string ir_hash;
  /// Model/loop label supplied by the caller ("" when unlabelled).
  std::string model;
  std::string backend_requested;  // "interp" | "native"
  std::string backend_used;
  /// Empty when the requested backend ran; "<category>: <detail>" otherwise.
  std::string fallback_reason;
  std::uint64_t seed = 0;
  /// fault::hash of the active FaultPlan; 0 when fault-free.
  std::uint64_t fault_plan_hash = 0;
  /// Batch fan-out the run was part of (1 for standalone runs).
  unsigned threads = 1;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double events_per_s = 0.0;
  /// Schema v3, sweep-service records only: 1 when every work unit of the
  /// request came out of the daemon's result cache, 0 when at least one was
  /// computed. -1 = not applicable (non-service run / older schema); the
  /// JSON field is omitted in that case.
  int served_from_cache = -1;
  /// Single-line JSON snapshot of the attached sim MetricsRegistry
  /// ("{}" when none was attached).
  std::string metrics_json = "{}";
};

/// One-line JSON rendering (no trailing newline).
std::string to_json_line(const LedgerRecord& r);

/// Parse one ledger line. Returns false (leaving `out` untouched) on blank
/// lines, malformed JSON or an unknown schema_version.
bool parse_json_line(const std::string& line, LedgerRecord& out);

class Ledger {
 public:
  /// `path` empty → in-memory only. `capacity` bounds the in-memory tail
  /// (oldest records are dropped); the file, when configured, always gets
  /// every record.
  explicit Ledger(std::string path = {}, std::size_t capacity = 1024);

  /// Thread-safe: serialize, retain in the in-memory tail, and append to the
  /// configured file (best-effort: an unwritable path degrades to in-memory
  /// rather than failing the run being recorded).
  void append(const LedgerRecord& r);

  /// Chronological copy of the retained in-memory tail.
  std::vector<LedgerRecord> records() const;
  std::size_t size() const;
  const std::string& path() const { return path_; }

  /// The process-wide ledger backend::run stamps into; its file destination
  /// is read from ECSIM_LEDGER once, at first use.
  static Ledger& global();

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::size_t capacity_;
  std::vector<LedgerRecord> tail_;  // ring; head_ marks the oldest slot
  std::size_t head_ = 0;
  bool wrapped_ = false;
};

/// Read every parseable record of a ledger JSONL file (missing file → empty).
std::vector<LedgerRecord> read_ledger_file(const std::string& path);

/// Aggregate of the served_from_cache column over a record set — the
/// `ecsim_flow ledger show --cache` summary. Records where the field is
/// absent (v1/v2 lines, non-service runs) count as `untagged` and stay out
/// of the hit-rate denominator.
struct CacheSummary {
  std::size_t served = 0;    // served_from_cache == 1
  std::size_t computed = 0;  // served_from_cache == 0
  std::size_t untagged = 0;  // field absent (-1)
  /// served / (served + computed); 0 when no tagged records exist.
  double hit_rate() const {
    const std::size_t tagged = served + computed;
    return tagged == 0 ? 0.0
                       : static_cast<double>(served) /
                             static_cast<double>(tagged);
  }
};

CacheSummary summarize_cache(const std::vector<LedgerRecord>& records);

/// Outcome of comparing the latest comparable ledger record against a
/// committed benchmark figure.
struct LedgerDiff {
  /// False when no committed figure or no record with the matching IR hash
  /// exists — nothing to compare, not a regression.
  bool comparable = false;
  bool regression = false;
  std::string scenario;
  std::string ir_hash;              // committed model_ir_hash_<scenario>
  double committed_events_per_s = 0.0;
  double latest_events_per_s = 0.0;
  double threshold_pct = 10.0;
  std::string message;  // human-readable verdict
};

/// Find the committed `model_ir_hash_<scenario>` and the scenario's
/// `native_best_events_per_s` in `bench_json` (a BENCH_*.json text), locate
/// the newest record in `records` whose ir_hash matches, and flag a
/// regression when its events/s is more than `threshold_pct` percent below
/// the committed figure.
LedgerDiff diff_latest_against_bench(const std::vector<LedgerRecord>& records,
                                     const std::string& bench_json,
                                     const std::string& scenario = "chains_200",
                                     double threshold_pct = 10.0);

}  // namespace ecsim::obs
