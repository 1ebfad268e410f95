// CommGate: the describable residue of an ArmedFaultPlan for ONE scheduled
// transfer. PR 6 note (DESIGN.md §3.6): the graph-of-delays translation used
// to hand EventFault an opaque closure capturing the whole armed plan, which
// made every fault-injected model unregenerable from IR. A CommGate is pure
// data — the plan seed, the nominal period, the transfer's schedule comm
// index and duration, and the resolved message-fault entries that apply to
// it — and comm_gate_decide() replays ArmedFaultPlan::comm_effect()
// bit-exactly from that data alone, so the IR can serialize it and the
// native code generator can re-emit it.
//
// Deliberately free of any dependency beyond mathlib: the native-backend
// runtime archive compiles this file without dragging in the AAA layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ecsim::fault {

/// One message fault applicable to the gated transfer, with its target
/// already resolved. `fault` keeps the FaultPlan index because it is a
/// coordinate of the injection-decision hash — renumbering would change
/// which iterations fault.
struct CommGateEntry {
  enum class Kind { kLoss = 0, kDelay = 1, kDuplicate = 2 };
  std::size_t fault = 0;
  Kind kind = Kind::kLoss;
  double probability = 1.0;
  double delay = 0.0;           // kDelay: extra delivery latency
  std::size_t extra_copies = 0;  // kDuplicate
  double t_start = 0.0;
  double t_stop = std::numeric_limits<double>::infinity();
};

struct CommGate {
  std::uint64_t seed = 0;    // plan seed (decision coordinate)
  double period = 0.0;       // nominal iteration length (window checks)
  std::size_t comm_index = 0;  // schedule comm index (decision coordinate)
  double transfer_duration = 0.0;  // one copy's medium occupancy
  std::vector<CommGateEntry> entries;  // in FaultPlan order
};

/// What the gate does to activation number `k` (== iteration index).
struct CommGateAction {
  bool drop = false;
  double defer = 0.0;
};

/// The injection decision of `fault` on `entity` (a comm or op index) at
/// `iteration`: uniform in [0, 1) from the stream keyed by (plan seed,
/// fault, entity, iteration), so it never depends on how many draws other
/// faults or entities made. The one decision rule of ArmedFaultPlan (the
/// executive VM's) and of every gate.
double fault_draw(std::uint64_t seed, std::size_t fault, std::size_t entity,
                  std::size_t iteration);

/// Pure function of (gate, k): replays the armed plan's comm_effect for
/// this transfer — first triggered loss wins; triggered delays sum;
/// triggered duplicates defer by extra copies of the transfer duration.
CommGateAction comm_gate_decide(const CommGate& gate, std::size_t k);

}  // namespace ecsim::fault
