// Simulation trace: time-stamped records of event dispatches and probed
// signals. The latency analysis module (eqs. 1-2 of the paper) and all
// control-performance metrics are computed from these records.
//
// Block names are interned once into a name table (indexed by block index,
// registered by the Simulator from the CompiledModel) instead of being
// copied into every EventRecord; records carry only indices and names are
// resolved on demand. Trace::operator== therefore stays a valid identity
// oracle: it compares the record streams and the name table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ecsim::sim {

using Time = double;

/// One block activation (an event consumed on an event input port).
struct EventRecord {
  Time time = 0.0;
  std::size_t block = 0;      // block index in the model
  std::size_t event_in = 0;   // which event input fired

  friend bool operator==(const EventRecord&, const EventRecord&) = default;
};

/// One probed signal sample.
struct SignalRecord {
  Time time = 0.0;
  std::size_t block = 0;  // index of the probing block
  std::vector<double> values;

  friend bool operator==(const SignalRecord&, const SignalRecord&) = default;
};

/// Append-only trace populated by the simulator during a run.
class Trace {
 public:
  /// Fast path: the block's name must already be registered (the Simulator
  /// registers the whole model's name table before the run). Inline — this
  /// runs once per dispatched event.
  void record_event(Time t, std::size_t block, std::size_t event_in) {
    events_.push_back(EventRecord{t, block, event_in});
  }
  /// Compatibility path for hand-built traces: registers `name` for `block`
  /// on first sight (first registration wins), then records.
  void record_event(Time t, std::size_t block, std::size_t event_in,
                    const std::string& name);
  void record_signal(Time t, std::size_t block, std::vector<double> values);
  /// Hot-path overload: copies `values` into a vector recycled from the
  /// clear() pool, so steady-state probing allocates nothing once every
  /// sample slot has been warmed up (DESIGN.md §3.4).
  void record_signal(Time t, std::size_t block, std::span<const double> values);

  /// Install the block-index -> name table (typically
  /// CompiledModel::block_names()). Replaces any prior table.
  void register_block_names(std::vector<std::string> names);
  /// Register/overwrite one name (grows the table as needed).
  void set_block_name(std::size_t block, std::string_view name);
  /// Name of a block, or "" when unregistered.
  std::string_view block_name(std::size_t block) const;

  const std::vector<EventRecord>& events() const { return events_; }
  const std::vector<SignalRecord>& signals() const { return signals_; }

  /// Pre-size the record streams so long runs don't reallocate mid-trace.
  /// Size the hints from the run horizon and activation periods (e.g.
  /// end_time / period x expected fan-out). Never shrinks.
  void reserve(std::size_t events, std::size_t signals);

  /// Activation times of a given block (optionally restricted to one event
  /// input port; pass npos for any port).
  std::vector<Time> activation_times(
      std::size_t block,
      std::size_t event_in = static_cast<std::size_t>(-1)) const;

  /// Same, addressed by block name (aggregates if several blocks share it).
  std::vector<Time> activation_times_by_name(
      const std::string& name,
      std::size_t event_in = static_cast<std::size_t>(-1)) const;

  /// Time series (t, values[component]) of a probe block's records.
  std::vector<std::pair<Time, double>> series(std::size_t block,
                                              std::size_t component = 0) const;

  /// Same, addressed by the probing block's name.
  std::vector<std::pair<Time, double>> series_by_name(
      const std::string& name, std::size_t component = 0) const;

  /// Clears the record streams; the name table survives (it is structural,
  /// not per-run). Signal value vectors are recycled into an internal pool
  /// so a re-run records into already-sized buffers without allocating.
  void clear();

  /// Exact (bitwise on times/values) equality — the A/B oracle for the
  /// incremental-vs-full-refresh equivalence property. Also compares the
  /// name tables, so identity by (index, name) is preserved. The recycling
  /// pool is deliberately excluded: it is capacity, not content.
  friend bool operator==(const Trace& a, const Trace& b) {
    return a.events_ == b.events_ && a.signals_ == b.signals_ &&
           a.names_ == b.names_;
  }

 private:
  /// Keep pool_ able to absorb every live signal buffer without growing, so
  /// clear()'s recycle loop is allocation-free on a warmed trace.
  void reserve_pool();

  std::vector<EventRecord> events_;
  std::vector<SignalRecord> signals_;
  std::vector<std::string> names_;  // block index -> name ("" = unknown)
  std::vector<std::vector<double>> pool_;  // recycled signal value buffers
};

/// FNV-style word-wise digest over the record streams (times/values by their
/// exact bit patterns). Two traces with equal digests are bit-identical in
/// practice; the Monte Carlo drivers store one digest per trial so
/// batch-width/thread invariance can be asserted without keeping W full
/// traces alive. The name table is excluded: it is structural, not per-run.
std::uint64_t trace_digest(const Trace& trace);

}  // namespace ecsim::sim
