#include "translate/cosim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "aaa/exec_time.hpp"
#include "backend/backend.hpp"
#include "blocks/continuous.hpp"
#include "fault/fault_plan.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"
#include "sim/build_ir.hpp"
#include "sim/simulator.hpp"

namespace ecsim::translate {

namespace {

/// Keys of the loop's random blocks (aaa::block_key): the same noise key in
/// every loop, so the ideal and the distributed co-simulations of one design
/// sample the same noise sequence (common random numbers).
constexpr std::size_t kNoiseBlock = 0;
constexpr std::size_t kActJitterBlock = 1;

/// The assembled loop: the model plus handles on the blocks whose events
/// define the timing regime.
struct LoopModel {
  sim::Model model;
  blocks::SampleHold* sampler = nullptr;
  blocks::StateSpaceDisc* controller = nullptr;
  blocks::SampleHold* actuator = nullptr;
  const sim::Block* error_monitor = nullptr;  // ref - y, for conditioning
  /// Where a sampling activation must be delivered: the sampler itself, or
  /// the measurement-noise block chained in front of it.
  const sim::Block* sample_trigger = nullptr;
  std::size_t sample_trigger_in = 0;
  std::size_t probe_y = 0;  // block indices for trace lookup
  std::size_t probe_u = 0;
  /// Graph-of-delays fault gates (distributed runs with a fault plan).
  std::vector<const blocks::EventFault*> fault_gates;
};

LoopModel assemble_loop(const LoopSpec& spec) {
  spec.plant.validate();
  spec.controller.validate();
  if (spec.plant.discrete) {
    throw std::invalid_argument("cosim: plant must be continuous");
  }
  if (!spec.controller.discrete) {
    throw std::invalid_argument("cosim: controller must be discrete");
  }
  if (spec.plant.num_inputs() != 1) {
    throw std::invalid_argument(
        "cosim: plant must be single-input (wrap disturbances externally)");
  }
  if (spec.output_index >= spec.plant.num_outputs()) {
    throw std::invalid_argument("cosim: output_index out of range");
  }

  LoopModel lm;
  sim::Model& m = lm.model;
  const std::size_t p = spec.plant.num_outputs();

  auto& plant = m.add<blocks::StateSpaceCont>("plant", spec.plant.a,
                                              spec.plant.b, spec.plant.c,
                                              spec.plant.d);
  auto& ref = m.add<blocks::Step>("ref", 0.0, spec.ref, 0.0);
  // Row selector for the loop-closure output.
  math::Matrix sel(1, p);
  sel(0, spec.output_index) = 1.0;
  auto& ysel = m.add<blocks::Gain>("ysel", sel);
  m.connect(plant, 0, ysel, 0);

  auto& ctrl = m.add<blocks::StateSpaceDisc>("ctrl", spec.controller.a,
                                             spec.controller.b,
                                             spec.controller.c,
                                             spec.controller.d);
  lm.controller = &ctrl;

  // Optional sampled measurement noise, shared by all measured lanes.
  const sim::Block* noise_out = nullptr;  // width-1 noise value
  blocks::NoiseHold* noise = nullptr;
  if (spec.measurement_noise_std > 0.0) {
    noise = &m.add<blocks::NoiseHold>("mnoise", 0.0,
                                      spec.measurement_noise_std,
                                      aaa::block_key(kNoiseBlock));
    noise_out = noise;
  }
  // Measured signal fed to the sampler: y (or the full output vector),
  // plus noise when enabled.
  auto noisy_of = [&](const sim::Block& signal, std::size_t width)
      -> const sim::Block& {
    if (noise_out == nullptr) return signal;
    math::Matrix spread(width, 1);
    for (std::size_t i = 0; i < width; ++i) spread(i, 0) = 1.0;
    auto& widen = m.add<blocks::Gain>("mnoise/widen", spread);
    m.connect(*noise_out, 0, widen, 0);
    auto& sum = m.add<blocks::Sum>("measured",
                                   std::vector<double>{1.0, 1.0}, width);
    m.connect(signal, 0, sum, 0);
    m.connect(widen, 0, sum, 1);
    return sum;
  };

  switch (spec.input) {
    case ControllerInput::kError: {
      if (spec.controller.num_inputs() != 1) {
        throw std::invalid_argument(
            "cosim: kError mode needs a single-input controller");
      }
      auto& sampler = m.add<blocks::SampleHold>("sense", 1);
      lm.sampler = &sampler;
      m.connect(noisy_of(ysel, 1), 0, sampler, 0);
      auto& err = m.add<blocks::Sum>("err", std::vector<double>{1.0, -1.0}, 1);
      m.connect(ref, 0, err, 0);
      m.connect(sampler, 0, err, 1);
      m.connect(err, 0, ctrl, 0);
      lm.error_monitor = &err;
      break;
    }
    case ControllerInput::kStateRef: {
      if (spec.controller.num_inputs() != p + 1) {
        throw std::invalid_argument(
            "cosim: kStateRef mode needs controller input width = plant "
            "outputs + 1 (for the reference)");
      }
      auto& sampler = m.add<blocks::SampleHold>("sense", p);
      lm.sampler = &sampler;
      m.connect(noisy_of(plant, p), 0, sampler, 0);
      auto& mux = m.add<blocks::Mux>("xr", std::vector<std::size_t>{p, 1});
      m.connect(sampler, 0, mux, 0);
      m.connect(ref, 0, mux, 1);
      m.connect(mux, 0, ctrl, 0);
      break;
    }
    case ControllerInput::kOutputRef: {
      if (spec.controller.num_inputs() != 2) {
        throw std::invalid_argument(
            "cosim: kOutputRef mode needs controller input width = 2 "
            "([y; ref])");
      }
      auto& sampler = m.add<blocks::SampleHold>("sense", 1);
      lm.sampler = &sampler;
      m.connect(noisy_of(ysel, 1), 0, sampler, 0);
      auto& mux = m.add<blocks::Mux>("yr", std::vector<std::size_t>{1, 1});
      m.connect(sampler, 0, mux, 0);
      m.connect(ref, 0, mux, 1);
      m.connect(mux, 0, ctrl, 0);
      break;
    }
  }
  if (lm.error_monitor == nullptr) {
    // Error monitor for data-driven conditioning (not in the control path).
    auto& errmon =
        m.add<blocks::Sum>("errmon", std::vector<double>{1.0, -1.0}, 1);
    m.connect(ref, 0, errmon, 0);
    m.connect(ysel, 0, errmon, 1);
    lm.error_monitor = &errmon;
  }

  // Route every sampling activation through the noise block (if any) so the
  // sampler sees a fresh draw at its own activation instant.
  if (noise != nullptr) {
    m.connect_event(*noise, noise->done_event_out(), *lm.sampler,
                    lm.sampler->event_in());
    lm.sample_trigger = noise;
    lm.sample_trigger_in = noise->event_in();
  } else {
    lm.sample_trigger = lm.sampler;
    lm.sample_trigger_in = lm.sampler->event_in();
  }

  auto& act = m.add<blocks::SampleHold>("act", 1);
  lm.actuator = &act;
  m.connect(ctrl, 0, act, 0);
  if (spec.disturbance_amplitude != 0.0) {
    auto& dist = m.add<blocks::Pulse>("dist", -spec.disturbance_amplitude,
                                      spec.disturbance_amplitude,
                                      spec.disturbance_period, 0.5);
    auto& plant_in =
        m.add<blocks::Sum>("plant_in", std::vector<double>{1.0, 1.0}, 1);
    m.connect(act, 0, plant_in, 0);
    m.connect(dist, 0, plant_in, 1);
    m.connect(plant_in, 0, plant, 0);
  } else {
    m.connect(act, 0, plant, 0);
  }

  auto& probe_y = m.add<blocks::Probe>("probe_y", 1, spec.record_dt);
  m.connect(ysel, 0, probe_y, 0);
  auto& probe_u = m.add<blocks::Probe>("probe_u", 1, spec.record_dt);
  m.connect(act, 0, probe_u, 0);
  lm.probe_y = m.index_of(probe_y);
  lm.probe_u = m.index_of(probe_u);
  return lm;
}

/// Runs the assembled loop through the backend dispatcher and extracts the
/// control/latency metrics. `fault_plan_hash` is a ledger annotation
/// (fault::hash of the active plan).
CosimOutcome simulate_and_measure(LoopModel& lm, const LoopSpec& spec,
                                  std::uint64_t fault_plan_hash = 0) {
  backend::RunOptions ro;
  ro.sim.end_time = spec.t_end;
  ro.sim.seed = spec.seed;
  ro.sim.integrator.kind = sim::IntegratorKind::kRk4;
  ro.sim.integrator.max_step = spec.integrator_max_step;
  ro.model_name = "loop";
  ro.fault_plan_hash = fault_plan_hash;
  ro.threads = spec.threads;
  ro.kind = spec.backend;
  backend::RunResult r = backend::run(lm.model, ro);
  const sim::Trace& trace = r.trace;

  CosimOutcome out;
  out.backend_used = r.used;
  out.backend_fallback = r.fallback_reason;
  // Fault accounting: a gate's k-th activation gets comm_gate_decide(gate,
  // k), so replaying the decisions over the activation count the trace
  // records gives the gates' drop/defer counts whichever backend ran.
  if (!lm.fault_gates.empty()) {
    std::vector<std::size_t> activations(lm.model.num_blocks(), 0);
    for (const sim::EventRecord& e : trace.events()) ++activations[e.block];
    for (const blocks::EventFault* gate : lm.fault_gates) {
      const std::size_t n = activations[lm.model.index_of(*gate)];
      for (std::size_t k = 0; k < n; ++k) {
        const fault::CommGateAction a =
            fault::comm_gate_decide(gate->gate(), k);
        if (a.drop) {
          ++out.messages_lost;
        } else if (a.defer > 0.0) {
          ++out.messages_deferred;
        }
      }
    }
  }
  out.y = trace.series(lm.probe_y);
  out.u = trace.series(lm.probe_u);
  out.step = control::step_info(out.y, spec.ref);
  out.iae = control::iae(out.y, spec.ref);
  out.ise = control::ise(out.y, spec.ref);
  out.itae = control::itae(out.y, spec.ref);
  out.cost = control::quadratic_cost(out.y, out.u, spec.ref, spec.qy, spec.ru);
  out.sense_latency = latency::analyze_block_activations(
      trace, "sense", spec.ts, "sampling");
  out.act_latency = latency::analyze_block_activations(
      trace, "act", spec.ts, "actuation");
  return out;
}

}  // namespace

namespace {

/// Stroboscopic wiring: one clock, zero-latency causal chain within the
/// same instant (FIFO event ordering keeps sample -> control -> actuate).
void wire_ideal(LoopModel& lm, const LoopSpec& spec) {
  sim::Model& m = lm.model;
  auto& clock = m.add<blocks::Clock>("clock", spec.ts);
  m.connect_event(clock, clock.event_out(), *lm.sample_trigger,
                  lm.sample_trigger_in);
  m.connect_event(*lm.sampler, lm.sampler->done_event_out(), *lm.controller,
                  lm.controller->event_in());
  m.connect_event(*lm.controller, lm.controller->done_event_out(),
                  *lm.actuator, lm.actuator->event_in());
}

}  // namespace

CosimOutcome run_ideal_loop(const LoopSpec& spec) {
  LoopModel lm = assemble_loop(spec);
  wire_ideal(lm, spec);
  return simulate_and_measure(lm, spec);
}

ir::Model loop_ir(const LoopSpec& spec) {
  LoopModel lm = assemble_loop(spec);
  wire_ideal(lm, spec);
  return sim::build_ir(lm.model, "loop");
}

CosimOutcome run_latency_loop(const LoopSpec& spec, double ls, double la,
                              double jitter_p2p) {
  if (ls < 0.0 || la < ls) {
    throw std::invalid_argument("run_latency_loop: need 0 <= ls <= la");
  }
  LoopModel lm = assemble_loop(spec);
  sim::Model& m = lm.model;
  auto& clock = m.add<blocks::Clock>("clock", spec.ts);
  auto& d_sense = m.add<blocks::EventDelay>("lat/sense", ls);
  m.connect_event(clock, clock.event_out(), d_sense, d_sense.event_in());
  m.connect_event(d_sense, d_sense.event_out(), *lm.sample_trigger,
                  lm.sample_trigger_in);
  m.connect_event(*lm.sampler, lm.sampler->done_event_out(), *lm.controller,
                  lm.controller->event_in());
  const double base = la - ls;
  const blocks::DurationSpec act_delay =
      jitter_p2p <= 0.0
          ? blocks::constant_duration(base)
          : blocks::shifted_uniform_duration(
                base, jitter_p2p, aaa::block_key(kActJitterBlock));
  auto& d_act = m.add<blocks::EventDelay>("lat/act", act_delay);
  m.connect_event(*lm.controller, lm.controller->done_event_out(), d_act,
                  d_act.event_in());
  m.connect_event(d_act, d_act.event_out(), *lm.actuator,
                  lm.actuator->event_in());
  return simulate_and_measure(lm, spec);
}

aaa::AlgorithmGraph make_loop_algorithm(const LoopSpec& spec,
                                        const DistributedSpec& dist) {
  aaa::AlgorithmGraph alg("control-loop", spec.ts);
  aaa::Operation sense;
  sense.name = "sense";
  sense.kind = aaa::OpKind::kSensor;
  sense.wcet["cpu"] = dist.wcet_sense;
  if (!dist.bind_sense.empty()) sense.bound_processor = dist.bind_sense;
  const aaa::OpId s = alg.add_operation(std::move(sense));

  aaa::Operation ctrl;
  ctrl.name = "ctrl";
  ctrl.kind = aaa::OpKind::kCompute;
  if (dist.ctrl_branch_wcets.empty()) {
    ctrl.wcet["cpu"] = dist.wcet_ctrl;
  } else {
    for (std::size_t b = 0; b < dist.ctrl_branch_wcets.size(); ++b) {
      aaa::Branch br;
      br.name = "branch" + std::to_string(b);
      br.wcet["cpu"] = dist.ctrl_branch_wcets[b];
      ctrl.branches.push_back(std::move(br));
    }
  }
  if (!dist.bind_ctrl.empty()) ctrl.bound_processor = dist.bind_ctrl;
  const aaa::OpId c = alg.add_operation(std::move(ctrl));

  aaa::Operation act;
  act.name = "act";
  act.kind = aaa::OpKind::kActuator;
  act.wcet["cpu"] = dist.wcet_act;
  if (!dist.bind_act.empty()) act.bound_processor = dist.bind_act;
  const aaa::OpId a = alg.add_operation(std::move(act));

  alg.add_dependency(s, c, dist.size_y);
  alg.add_dependency(c, a, dist.size_u);
  return alg;
}

CosimOutcome run_distributed_loop(const LoopSpec& spec,
                                  const DistributedSpec& dist) {
  LoopModel lm = assemble_loop(spec);
  const aaa::AlgorithmGraph alg = make_loop_algorithm(spec, dist);
  const aaa::Schedule sched = aaa::adequate(alg, dist.arch, dist.adequation);
  sched.validate(alg, dist.arch);

  GodOptions god_opts = dist.god;
  if (dist.ctrl_condition_threshold) {
    if (dist.ctrl_branch_wcets.size() != 2) {
      throw std::invalid_argument(
          "run_distributed_loop: ctrl_condition_threshold needs exactly two "
          "branch WCETs");
    }
    const double threshold = *dist.ctrl_condition_threshold;
    god_opts.conditions["ctrl"] = ConditionBinding{
        lm.error_monitor, 0, [threshold](std::span<const double> e) {
          return static_cast<std::size_t>(std::abs(e[0]) > threshold ? 1 : 0);
        }};
  }
  GraphOfDelays god =
      build_graph_of_delays(lm.model, alg, dist.arch, sched, god_opts);
  wire_completion(lm.model, god, alg.find("sense"), *lm.sample_trigger,
                  lm.sample_trigger_in);
  wire_completion(lm.model, god, alg.find("ctrl"), *lm.controller,
                  lm.controller->event_in());
  wire_completion(lm.model, god, alg.find("act"), *lm.actuator,
                  lm.actuator->event_in());

  lm.fault_gates = god.fault_gates;
  CosimOutcome out =
      simulate_and_measure(lm, spec, fault::hash(dist.god.fault_plan));
  out.makespan = sched.makespan();
  out.schedule_text = sched.to_string(alg, dist.arch);
  return out;
}

}  // namespace ecsim::translate
