// Fault injection & robustness evaluation (DESIGN.md §3.5). The paper's
// methodology predicts *nominal* implementation behaviour — latencies,
// jitter, synchronization effects — before hardware exists; a real
// distributed ECU network additionally drops CAN frames, delays messages and
// loses nodes. A FaultPlan is a declarative schedule of such degradations
// that can be threaded through BOTH execution engines of this toolchain:
//   - the executive VM (exec::VmOptions::fault_plan): faults are applied at
//     comm/op dispatch while the generated executives run;
//   - the graph-of-delays translation (translate::GodOptions::fault_plan):
//     faults perturb or drop the completion events that drive the Sample/
//     Hold blocks, so the control-side co-simulation sees realistic
//     stale-data behaviour (ZOH holds the last sample) instead of crashing.
//
// Determinism contract (same recipe as par::BatchRunner, DESIGN.md §3.3):
// every injection decision is a PURE FUNCTION of
//   (plan seed, fault index, entity index, iteration index)
// — a per-instance math::Rng seeded by mixing those coordinates — never of
// the interpreter's interleaving, wall clock or thread count. Replaying a
// plan with the same seed therefore yields bit-identical traces, and fault
// sweeps on par::BatchRunner are serial-identical for any thread count.
// A second consequence used by the robustness benches: for one seed the
// decision value u drawn for an instance does not depend on the fault's
// probability p (injected iff u < p), so the set of instances lost at
// p1 < p2 is a SUBSET of the set lost at p2 — loss-rate sweeps degrade
// monotonically instead of re-rolling the dice per cell.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/schedule.hpp"

namespace ecsim::fault {

struct CommGate;  // fault/comm_gate.hpp

using aaa::kNone;
using aaa::OpId;
using aaa::ProcId;
using aaa::Time;

/// The degradation modes a plan can schedule.
enum class FaultKind {
  kMessageLoss,       ///< a transfer never delivers (dropped/corrupted frame)
  kMessageDelay,      ///< delivery is late by FaultSpec::delay
  kMessageDuplicate,  ///< the frame occupies its medium for extra copies
  kOpOverrun,         ///< transient execution-time overrun (WCET inflation)
  kNodeStop,          ///< processor down during [t_start, t_stop): ops that
                      ///< would start inside the outage defer to the restart
};

/// One injectable fault. Message faults target a medium, kOpOverrun targets
/// an operation, kNodeStop targets a processor — all by name, resolved and
/// validated when the plan is armed against a schedule.
struct FaultSpec {
  FaultKind kind = FaultKind::kMessageLoss;
  /// Medium / operation / processor name; "" matches every candidate of the
  /// kind's target class. Unknown names throw at arming time (doc rot guard).
  std::string target;
  /// Per-instance Bernoulli injection probability (loss/delay/dup/overrun).
  /// kNodeStop ignores it: outages are window-deterministic.
  double probability = 1.0;
  /// kMessageDelay: extra delivery latency in seconds.
  Time delay = 0.0;
  /// kMessageDuplicate: number of extra copies occupying the medium.
  std::size_t extra_copies = 1;
  /// kOpOverrun: actual-execution-time multiplier (>= 1).
  double overrun_factor = 1.0;
  /// Active window. An instance is eligible iff its NOMINAL instant
  /// (iteration * period) lies in [t_start, t_stop) — nominal, not actual,
  /// so the executive VM and the translated simulation agree on which
  /// iterations are faulted.
  Time t_start = 0.0;
  Time t_stop = std::numeric_limits<Time>::infinity();
};

/// What a blocked receiver does when its message is reported lost.
enum class DegradationPolicy {
  /// Proceed at the would-be delivery instant with the held (stale) sample —
  /// the Sample/Hold boundary semantics of the translated model.
  kHoldLastSample,
  /// Skip the rest of the iteration's computations (the cycle is dropped);
  /// sends still fire with the stale buffer so downstream components stay
  /// live instead of deadlocking.
  kSkipCycle,
};

/// Declarative fault schedule. Empty plan == fault-free: every consumer
/// treats it as "no hooks installed" and the zero-fault path is bit-identical
/// to a run without any plan (guarded by bench_f1_fault_sweep).
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  // Builder helpers (append and return *this for chaining).
  FaultPlan& message_loss(std::string medium, double p);
  FaultPlan& message_delay(std::string medium, double p, Time delay);
  FaultPlan& message_duplicate(std::string medium, double p,
                               std::size_t extra_copies = 1);
  FaultPlan& op_overrun(std::string op, double p, double factor);
  FaultPlan& node_stop(std::string proc, Time t_start, Time t_stop);

  /// Restrict the most recently added fault to [t_start, t_stop).
  FaultPlan& window(Time t_start, Time t_stop);
};

/// One applied fault instance, reported by the executive VM (and sortable
/// into a deterministic order independent of the interpreter interleaving).
struct Injection {
  FaultKind kind = FaultKind::kMessageLoss;
  std::size_t fault = kNone;  ///< index into FaultPlan::faults
  std::size_t comm = kNone;   ///< schedule comm index (message faults)
  OpId op = kNone;            ///< operation (overrun / node-stop deferrals)
  std::size_t iteration = 0;
  Time at = 0.0;  ///< when the effect materialized (sim time)
};

/// A FaultPlan resolved against one (algorithm, architecture, schedule)
/// triple: target names become comm/op/processor index sets and the nominal
/// iteration period is fixed, so the per-instance queries below are pure
/// and cheap. Copyable value type — sweep cells arm once and capture copies.
class ArmedFaultPlan {
 public:
  /// Inactive plan (no faults); all queries return neutral effects.
  ArmedFaultPlan() = default;

  /// Resolves and validates the plan. Throws std::invalid_argument on an
  /// unknown target name, probability outside [0,1], negative delay,
  /// overrun_factor < 1, extra_copies == 0 or an empty window.
  ArmedFaultPlan(const FaultPlan& plan, const aaa::AlgorithmGraph& alg,
                 const aaa::ArchitectureGraph& arch,
                 const aaa::Schedule& sched);

  bool active() const { return !faults_.empty(); }
  std::uint64_t seed() const { return seed_; }
  /// Nominal iteration length used for window checks (the algorithm period,
  /// falling back to the schedule makespan for aperiodic graphs).
  Time period() const { return period_; }

  /// Combined message-fault effect on one scheduled transfer instance.
  struct CommEffect {
    bool lost = false;
    Time extra_delay = 0.0;      ///< summed over triggered delay faults
    std::size_t extra_copies = 0;  ///< summed over triggered dup faults
    std::size_t loss_fault = kNone;   ///< plan index of the loss fault
    std::size_t delay_fault = kNone;  ///< first triggered delay fault
    std::size_t dup_fault = kNone;    ///< first triggered dup fault
    bool any() const { return lost || extra_delay > 0.0 || extra_copies > 0; }
  };
  CommEffect comm_effect(std::size_t comm_index, std::size_t iteration) const;

  /// Exports the message-fault entries applicable to one scheduled transfer
  /// as a self-contained, describable gate (fault/comm_gate.hpp):
  /// comm_gate_decide(comm_gate(ci, dur), k) reproduces comm_effect(ci, k)
  /// bit-exactly, without a reference back to this plan. `transfer_duration`
  /// is one copy's medium occupancy (converts duplicates into defer time).
  CommGate comm_gate(std::size_t comm_index, Time transfer_duration) const;

  /// Execution-time multiplier for one operation instance (product of the
  /// triggered overrun faults; 1.0 when none). `fault_out`, if non-null,
  /// receives the first triggered fault index (kNone when none).
  double op_factor(OpId op, std::size_t iteration,
                   std::size_t* fault_out = nullptr) const;

  /// True if any kNodeStop fault targets `proc` (lets callers skip the
  /// release query entirely on healthy processors).
  bool node_has_outages(ProcId proc) const;
  /// Earliest instant >= t at which `proc` may start an operation: t itself,
  /// or the end of the outage window containing t.
  Time node_release(ProcId proc, Time t) const;

  const std::vector<FaultSpec>& faults() const { return faults_; }

 private:
  bool in_window(const FaultSpec& f, std::size_t iteration) const;

  std::uint64_t seed_ = 0;
  Time period_ = 0.0;
  std::vector<FaultSpec> faults_;
  // Per-entity lists of applicable fault indices (resolved from names).
  std::vector<std::vector<std::size_t>> comm_faults_;  // by schedule comm idx
  std::vector<std::vector<std::size_t>> op_faults_;    // by OpId
  std::vector<std::vector<std::size_t>> node_faults_;  // by ProcId
};

/// Human-readable one-line-per-fault rendering (CLI / bench tables).
std::string to_string(const FaultPlan& plan);

/// Canonical FNV-1a fingerprint of a plan (seed + every fault field, doubles
/// serialized hexfloat-exact). 0 for the empty (fault-free) plan — the value
/// the run ledger stamps as fault_plan_hash, so two ledger records with the
/// same hash ran under the same injected degradations.
std::uint64_t hash(const FaultPlan& plan);

}  // namespace ecsim::fault
