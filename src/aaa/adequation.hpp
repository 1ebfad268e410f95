// The "adequation": SynDEx's greedy list-scheduling heuristic matching the
// algorithm graph onto the architecture graph. At each step it evaluates,
// for every ready operation, the earliest start time on every compatible
// processor (including the store-and-forward communications that placement
// would require), and schedules the operation with the highest schedule
// pressure — the one whose best placement most constrains the remaining
// critical path — on its best processor. Communications are committed onto
// the media timelines as they are decided. An evaluation that no commit
// since could change is reused rather than recomputed; the schedule is the
// same bit for bit.
#pragma once

#include "aaa/routing.hpp"
#include "aaa/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ecsim::aaa {

/// Which ready operation to schedule next.
enum class SelectionRule {
  /// SynDEx's schedule pressure: maximize EST + critical-path tail — commit
  /// the operation whose best placement most constrains the end-to-end
  /// latency (default).
  kSchedulePressure,
  /// Greedy earliest-finish-time (ablation): ignore the downstream critical
  /// path, always commit the op that can finish soonest.
  kEarliestFinish,
};

struct AdequationOptions {
  /// When false (ablation EXP-A1), the *selection metric* pretends
  /// communications are free; the committed schedule still pays them.
  bool comm_aware = true;
  /// Per-data-unit weight added to edges when computing urgency levels.
  double tail_comm_weight = 0.0;
  SelectionRule rule = SelectionRule::kSchedulePressure;
  /// Observability (borrowed, may be null): a wall-clock "aaa.adequate"
  /// span, and counters measuring how much work the heuristic did:
  /// aaa.candidates_evaluated (candidate placements (op, proc) actually
  /// evaluated), aaa.candidates_reused (candidates of ready operations whose
  /// cached evaluation no commit could change, so it was reused; the two
  /// sum to the candidates a full re-evaluation at every step would
  /// evaluate), aaa.ops_scheduled and aaa.comms_committed.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Compute the static schedule. Throws std::runtime_error if some operation
/// has no feasible processor (incompatible type, unsatisfiable placement
/// constraint, or disconnected architecture).
Schedule adequate(const AlgorithmGraph& alg, const ArchitectureGraph& arch,
                  const AdequationOptions& opts = {});

}  // namespace ecsim::aaa
