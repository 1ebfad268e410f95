// High-level co-simulation driver: assembles the standard sampled-data loop
// (Fig. 2: plant + sampler S/H + discrete controller + actuator S/H) and
// runs it under one of four timing regimes:
//   - ideal stroboscopic clocking (the control engineer's assumption);
//   - fixed sampling/actuation latencies (Cervin-style sensitivity studies);
//   - randomly jittered actuation;
//   - full implementation-in-the-loop: an AAA schedule on a distributed
//     architecture translated into a graph of delays (the paper's flow).
// Returns the control-performance metrics and the eq.(1)/(2) latency series.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "aaa/adequation.hpp"
#include "backend/kind.hpp"
#include "control/metrics.hpp"
#include "control/state_space.hpp"
#include "ir/ir.hpp"
#include "latency/latency.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim::translate {

/// What the discrete controller consumes each period.
enum class ControllerInput {
  kError,      // scalar e = ref - y_sampled (classic error-driven PID/LTI)
  kStateRef,   // [all sampled plant outputs; ref] (state feedback + ff)
  kOutputRef,  // [sampled y; ref] (output feedback, e.g. observer-based)
};

struct LoopSpec {
  control::StateSpace plant;       // continuous plant
  control::StateSpace controller;  // discrete; input shape set by `input`
  double ts = 0.01;                // sampling period
  double t_end = 5.0;              // simulated horizon
  double ref = 1.0;                // step reference (applied at t = 0)
  std::size_t output_index = 0;    // which plant output closes the loop
  ControllerInput input = ControllerInput::kError;
  double record_dt = 1e-3;         // probe sampling period
  double qy = 1.0, ru = 0.0;       // quadratic-cost weights
  std::uint64_t seed = 1;
  double integrator_max_step = 2e-4;
  /// > 0: additive Gaussian measurement noise (stddev), redrawn at every
  /// sampling instant and corrupting ALL sampled lanes equally scaled.
  double measurement_noise_std = 0.0;
  /// != 0: square-wave load disturbance of this amplitude added to the
  /// plant input (period `disturbance_period`, 50% duty).
  double disturbance_amplitude = 0.0;
  double disturbance_period = 1.0;
  /// Execution backend (DESIGN.md §3.6). kNative runs the loop through the
  /// code generator, fault-gated distributed runs included, and falls back
  /// to the interpreter with a recorded reason
  /// (CosimOutcome::backend_fallback) only when it cannot — e.g. a
  /// condition binding, whose mapping is an opaque closure.
  backend::Kind backend = backend::Kind::kInterp;
  /// Annotation only (no behavioural effect): worker-thread count of the
  /// surrounding sweep/batch, stamped into the run-ledger record so a
  /// regression diff can tell a serial rerun from a contended parallel one.
  unsigned threads = 1;
};

struct DistributedSpec {
  aaa::ArchitectureGraph arch{aaa::ArchitectureGraph::bus_architecture(2, 1e5)};
  aaa::AdequationOptions adequation;
  double wcet_sense = 2e-4;
  double wcet_ctrl = 1e-3;
  double wcet_act = 2e-4;
  double size_y = 8.0;   // data units moved sensor -> controller
  double size_u = 8.0;   // controller -> actuator
  std::string bind_sense, bind_ctrl, bind_act;  // "" = unconstrained
  /// Non-empty: the controller op is conditional with these branch WCETs
  /// (paper §3.2.2 / Fig. 5).
  std::vector<double> ctrl_branch_wcets;
  /// With ctrl_branch_wcets of size 2: choose branch 1 (the slow one) when
  /// |ref - y| exceeds this threshold — data-driven conditioning through the
  /// paper's Condition Mapping instead of random branches.
  std::optional<double> ctrl_condition_threshold;
  GodOptions god;  // bcet_fraction, branch, conditions, fault plan
};

struct CosimOutcome {
  control::StepInfo step;
  double iae = 0.0;
  double ise = 0.0;
  double itae = 0.0;
  double cost = 0.0;  // time-averaged quadratic cost
  latency::LatencySeries sense_latency;
  latency::LatencySeries act_latency;
  double makespan = 0.0;       // distributed runs only
  std::string schedule_text;   // distributed runs only
  /// Fault accounting (distributed runs with a GodOptions::fault_plan):
  /// comm events dropped / deferred by the graph-of-delays fault gates,
  /// replayed from the gates' data over their activations in the trace, so
  /// both backends report the same counts.
  std::size_t messages_lost = 0;
  std::size_t messages_deferred = 0;
  control::Series y;           // probed output trajectory
  control::Series u;           // probed control trajectory
  /// Backend that actually executed the loop, and — when it differs from
  /// the requested one — why the interpreter ran instead.
  backend::Kind backend_used = backend::Kind::kInterp;
  std::string backend_fallback;
};

/// Fig. 2: ideal stroboscopic loop — sampling, control and actuation all at
/// the period boundary.
CosimOutcome run_ideal_loop(const LoopSpec& spec);

/// Constant latencies: sampling at k*ts + ls, actuation at k*ts + la
/// (0 <= ls <= la), plus uniform actuation jitter of peak-to-peak
/// `jitter_p2p` centred on la. Used for timing-sensitivity sweeps (EXP-C1).
CosimOutcome run_latency_loop(const LoopSpec& spec, double ls, double la,
                              double jitter_p2p = 0.0);

/// Fig. 3: full flow — extract the loop's algorithm graph, run the
/// adequation on `dist.arch`, build the graph of delays, co-simulate.
CosimOutcome run_distributed_loop(const LoopSpec& spec,
                                  const DistributedSpec& dist);

/// The three-operation algorithm graph (sense -> ctrl -> act) used by
/// run_distributed_loop, exposed for benches that sweep architectures.
aaa::AlgorithmGraph make_loop_algorithm(const LoopSpec& spec,
                                        const DistributedSpec& dist);

/// Canonical Model IR of the assembled ideal-clocked loop (DESIGN.md §3.6):
/// the fingerprint benches stamp into BENCH_*.json so a report names the
/// exact model its numbers were measured on.
ir::Model loop_ir(const LoopSpec& spec);

}  // namespace ecsim::translate
