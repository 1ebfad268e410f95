// Architecture graph of the AAA methodology: heterogeneous processors
// connected by communication media (buses / point-to-point links). Transfer
// duration on a medium = latency + size / bandwidth.
#pragma once

#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"  // Time, kNone

namespace ecsim::aaa {

using ProcId = std::size_t;
using MediumId = std::size_t;

struct Processor {
  std::string name;
  std::string type = "cpu";  // keys into Operation::wcet
};

/// Bus arbitration policy.
enum class Arbitration {
  kImmediate,     // transfer starts as soon as data + medium are ready
  kTdma,          // transfers may only start on a fixed slot grid
  kCanPriority,   // CAN: ID-based fixed-priority, non-preemptive frames
};

struct Medium {
  std::string name;
  double bandwidth = 1.0;  // data units per time unit
  Time latency = 0.0;      // fixed per-transfer overhead
  Arbitration arbitration = Arbitration::kImmediate;
  Time tdma_slot = 0.0;    // slot grid period (kTdma only)
  /// Number of owner slots per TDMA round (kTdma only). 1 = any boundary
  /// (classic grid); n > 1 = message with priority p owns slot p % n of the
  /// round, i.e. may only start at t = k*n*tdma_slot + (p%n)*tdma_slot.
  std::size_t tdma_slots = 1;
  /// Worst-case non-preemptive blocking (kCanPriority only): the longest
  /// time a ready frame can wait behind one already-transmitting lower
  /// priority (or background) frame. Charged per frame before its start —
  /// start = max(ready + blocking, bus free) — by the adequation, the exec
  /// VM and the graph of delays alike; the modeled frames themselves go in
  /// the schedule's static order on the bus, so WCET runs reproduce it.
  Time can_blocking = 0.0;
  /// Fraction of the raw bandwidth consumed by interfering background
  /// traffic, in [0, 1). Effective bandwidth = bandwidth * (1 - load).
  double background_load = 0.0;

  /// Bandwidth left after background contention.
  double effective_bandwidth() const {
    return bandwidth * (1.0 - background_load);
  }

  Time transfer_time(double size) const {
    return latency + size / effective_bandwidth();
  }

  /// Earliest instant >= ready at which a transfer may begin under this
  /// medium's arbitration policy. TDMA slots live on the ABSOLUTE time grid
  /// t = k * tdma_slot; for strictly periodic executions the algorithm
  /// period should therefore be an integer multiple of the slot (times the
  /// slot count when owner slots are in play).
  Time earliest_start(Time ready) const;

  /// Owner-slot-aware variant: under kTdma with tdma_slots > 1 the message
  /// with the given priority may only start in its own slot of the round.
  /// For every other arbitration (and for tdma_slots == 1) this is exactly
  /// earliest_start(ready).
  Time earliest_start(Time ready, std::size_t priority) const;
};

class ArchitectureGraph {
 public:
  explicit ArchitectureGraph(std::string name = "architecture")
      : name_(std::move(name)) {}

  ProcId add_processor(std::string name, std::string type = "cpu");
  MediumId add_medium(std::string name, double bandwidth, Time latency = 0.0);
  /// Switch a medium to TDMA arbitration with the given slot period and
  /// (optionally) `slots` owner slots per round (1 = any-boundary grid).
  void set_tdma(MediumId m, Time slot, std::size_t slots = 1);
  /// Switch a medium to CAN-style priority arbitration with the given
  /// worst-case non-preemptive blocking time (>= 0).
  void set_can(MediumId m, Time blocking = 0.0);
  /// Set the interfering background-traffic load on a medium, in [0, 1).
  void set_background_load(MediumId m, double load);
  /// Attach a processor to a medium (a medium with >2 attachments is a bus).
  void attach(ProcId p, MediumId m);

  std::size_t num_processors() const { return procs_.size(); }
  std::size_t num_media() const { return media_.size(); }
  const Processor& processor(ProcId p) const { return procs_.at(p); }
  const Medium& medium(MediumId m) const { return media_.at(m); }
  const std::vector<MediumId>& media_of(ProcId p) const {
    return proc_media_.at(p);
  }
  const std::vector<ProcId>& procs_on(MediumId m) const {
    return medium_procs_.at(m);
  }

  ProcId find_processor(const std::string& name) const;
  MediumId find_medium(const std::string& name) const;

  const std::string& name() const { return name_; }

  /// Convenience factory: `n` identical processors of one type on one shared
  /// bus of the given bandwidth/latency.
  static ArchitectureGraph bus_architecture(std::size_t n, double bandwidth,
                                            Time latency = 0.0,
                                            const std::string& type = "cpu");

 private:
  std::string name_;
  std::vector<Processor> procs_;
  std::vector<Medium> media_;
  std::vector<std::vector<MediumId>> proc_media_;
  std::vector<std::vector<ProcId>> medium_procs_;
};

}  // namespace ecsim::aaa
