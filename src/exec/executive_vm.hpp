// Executive VM: executes the generated distributed executives (per-processor
// instruction sequences + per-medium communicator sequences) with
// *actual* execution times that may be below WCET and with run-time branch
// choices for conditional operations. Used to validate the claims the paper
// makes about generated code (deadlock freedom, preserved total order) and
// to produce the sampling/actuation instants that exhibit jitter.
#pragma once

#include <string>
#include <vector>

#include "aaa/codegen.hpp"
#include "aaa/exec_time.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ecsim::exec {

using aaa::AlgorithmGraph;
using aaa::ArchitectureGraph;
using aaa::BranchChoice;
using aaa::GeneratedCode;
using aaa::kNone;
using aaa::Operation;
using aaa::OpId;
using aaa::ProcId;
using aaa::Schedule;
using aaa::Time;

struct VmOptions {
  /// Number of schedule iterations (periods) to execute.
  std::size_t iterations = 1;
  /// Sensor release period: a sensor op of iteration k cannot start before
  /// k * period. 0 disables periodic release (free-running).
  Time period = 0.0;
  /// Root of the execution-time and branch draws: op instance (op, k) takes
  /// aaa::draw_exec_time keyed by (seed, aaa::op_key(op), k), the draw the
  /// graph of delays' kKeyed EventDelays make (DESIGN.md §3.11).
  std::uint64_t seed = 1;
  /// Actual execution time uniform in [bcet_fraction * wcet, wcet]; 1.0 =>
  /// exactly WCET, with no draw. Below 1.0 the CAN blocking charged before
  /// a frame is drawn too, uniform in [0, blocking], keyed by
  /// aaa::can_wait_key(comm); at 1.0 the full blocking is charged.
  double bcet_fraction = 1.0;
  BranchChoice branch = BranchChoice::kFirst;
  /// Declarative fault schedule (DESIGN.md §3.5). Empty = fault-free and
  /// bit-identical to a run without a plan. Faults apply at comm/op
  /// dispatch: message loss/delay/duplication on the media, transient
  /// execution-time overruns, node stop/restart windows. Every injection
  /// decision is a pure function of (plan seed, fault, entity, iteration),
  /// so replays with the same seed produce bit-identical traces.
  fault::FaultPlan fault_plan;
  /// What a Recv does when its message is lost: proceed on the held sample
  /// at the would-be delivery instant (kHoldLastSample), or skip the rest of
  /// the iteration's computations (kSkipCycle). Either way the executive
  /// stays live — lost messages never deadlock the VM.
  fault::DegradationPolicy fault_policy =
      fault::DegradationPolicy::kHoldLastSample;
  /// Observability (borrowed, may be null). The tracer receives every
  /// operation instance as a sim-time span on its processor's track and
  /// every communication on its medium's track, plus a wall-clock "vm.run"
  /// span; the registry receives exec.ops_executed / exec.comms_executed /
  /// exec.wcet_lookups counters.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Prepended to "proc/..." and "medium/..." track names so several VM
  /// runs (e.g. a WCET run and an actual-times run) can share one trace
  /// file without their tracks colliding.
  std::string track_prefix;
};

struct OpInstance {
  OpId op = 0;
  std::size_t iteration = 0;
  ProcId proc = 0;
  Time start = 0.0;
  Time end = 0.0;
  std::size_t branch = kNone;  // taken branch for conditional ops
};

struct CommInstance {
  std::size_t comm = 0;  // index into Schedule::comms()
  std::size_t iteration = 0;
  Time start = 0.0;
  Time end = 0.0;
};

struct VmResult {
  std::vector<OpInstance> ops;
  std::vector<CommInstance> comms;
  bool deadlock = false;
  std::string deadlock_info;

  /// Every applied fault, sorted by (iteration, at, kind, comm, op) so the
  /// report order is independent of the interpreter interleaving.
  std::vector<fault::Injection> injections;
  std::size_t messages_lost = 0;        ///< transfers dropped
  std::size_t messages_delayed = 0;     ///< transfers with extra latency
  std::size_t messages_duplicated = 0;  ///< transfers retransmitted
  std::size_t op_overruns = 0;          ///< op instances with inflated time
  std::size_t node_stalls = 0;          ///< op starts deferred past an outage
  std::size_t stale_reads = 0;          ///< Recvs that held the last sample
  std::size_t cycles_skipped = 0;       ///< iterations abandoned (kSkipCycle)

  /// Completion instants of one operation, ordered by iteration.
  std::vector<Time> completions(OpId op) const;
  /// Start instants of one operation, ordered by iteration.
  std::vector<Time> starts(OpId op) const;
};

/// Run the executives. Never throws on deadlock — reports it in the result
/// so tests and experiments can assert on it.
VmResult run_executives(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched,
                        const GeneratedCode& code, const VmOptions& opts);

}  // namespace ecsim::exec
