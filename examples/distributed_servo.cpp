// The full ECLIPSE toolchain, stage by stage, on a two-mass flexible servo:
//
//   (a) build the Scicos-style simulation diagram (plant + S/H + controller);
//   (b) extract the control algorithm into an AAA algorithm graph with the
//       designer's timing annotations (Scicos -> SynDEx translation);
//   (c) describe the distributed architecture (3 processors, shared bus);
//   (d) run the adequation and print the resulting static schedule;
//   (e) generate the distributed executives and print the C-like source;
//   (f) run the executives on the virtual machine and check deadlock freedom
//       and WCET conformance;
//   (g) translate the schedule back into a graph of delays and co-simulate
//       the closed loop, reporting the latency series and control cost.
#include <cstdio>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"
#include "control/c2d.hpp"
#include "control/lqr.hpp"
#include "control/metrics.hpp"
#include "exec/conformance.hpp"
#include "latency/latency.hpp"
#include "plants/two_mass.hpp"
#include "sim/simulator.hpp"
#include "translate/extract.hpp"
#include "translate/graph_of_delays.hpp"

using namespace ecsim;

int main() {
  const double ts = 0.002;  // 500 Hz loop for the resonant drive

  // ---- (a) the simulation diagram ----------------------------------------
  control::StateSpace plant_ct = plants::two_mass();
  plant_ct.c = math::Matrix::identity(4);  // full state to the sampler
  plant_ct.d = math::Matrix::zeros(4, 1);
  const control::StateSpace plant_dt = control::c2d(plant_ct, ts);
  const control::LqrResult lqr =
      control::dlqr(plant_dt, math::Matrix::diag({200.0, 1.0, 200.0, 1.0}),
                    math::Matrix{{0.5}});
  control::StateSpace load_angle = plant_dt;
  load_angle.c = math::Matrix{{0.0, 0.0, 1.0, 0.0}};
  load_angle.d = math::Matrix{{0.0}};
  const double nbar = control::reference_gain(load_angle, lqr.k);

  sim::Model m;
  auto& plant = m.add<blocks::StateSpaceCont>("plant", plant_ct.a, plant_ct.b,
                                              plant_ct.c, plant_ct.d);
  auto& ref = m.add<blocks::Step>("ref", 0.0, 1.0, 0.0);
  auto& sense = m.add<blocks::SampleHold>("sense", 4);
  auto& mux = m.add<blocks::Mux>("xr", std::vector<std::size_t>{4, 1});
  // u = -K x + nbar r as a single-gain discrete block.
  math::Matrix d(1, 5);
  for (std::size_t i = 0; i < 4; ++i) d(0, i) = -lqr.k(0, i);
  d(0, 4) = nbar;
  auto& ctrl = m.add<blocks::StateSpaceDisc>(
      "ctrl", math::Matrix::zeros(0, 0), math::Matrix::zeros(0, 5),
      math::Matrix::zeros(1, 0), d);
  auto& act = m.add<blocks::SampleHold>("act", 1);
  auto& ysel = m.add<blocks::Gain>("ysel", math::Matrix{{0.0, 0.0, 1.0, 0.0}});
  auto& probe_y = m.add<blocks::Probe>("probe_y", 1, 1e-3);
  m.connect(plant, 0, sense, 0);
  m.connect(sense, 0, mux, 0);
  m.connect(ref, 0, mux, 1);
  m.connect(mux, 0, ctrl, 0);
  m.connect(ctrl, 0, act, 0);
  m.connect(act, 0, plant, 0);
  m.connect(plant, 0, ysel, 0);
  m.connect(ysel, 0, probe_y, 0);

  // ---- (b) Scicos -> SynDEx extraction -----------------------------------
  translate::TimingAnnotations annot;
  annot.wcet["sense"]["cpu"] = 1e-4;
  annot.wcet["ctrl"]["cpu"] = 8e-4;
  annot.wcet["act"]["cpu"] = 1e-4;
  annot.out_size["sense"] = 16.0;  // 4 doubles
  annot.out_size["ctrl"] = 4.0;
  annot.binding["sense"] = "ECU0";
  annot.binding["act"] = "ECU0";
  const aaa::AlgorithmGraph alg = translate::extract_algorithm(
      m, {"sense"}, {"ctrl"}, {"act"}, annot, ts);
  std::printf("extracted algorithm '%s' with %zu operations, %zu deps\n",
              alg.name().c_str(), alg.num_operations(),
              alg.dependencies().size());

  // ---- (c) the architecture -----------------------------------------------
  aaa::ArchitectureGraph arch("3-ecu");
  const auto e0 = arch.add_processor("ECU0");
  const auto e1 = arch.add_processor("ECU1");
  const auto e2 = arch.add_processor("ECU2");
  const auto bus = arch.add_medium("can", 4e4, 1e-4);
  arch.attach(e0, bus);
  arch.attach(e1, bus);
  arch.attach(e2, bus);

  // ---- (d) adequation ------------------------------------------------------
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  sched.validate(alg, arch);
  std::printf("\n%s\n", sched.to_string(alg, arch).c_str());

  // ---- (e) code generation -------------------------------------------------
  const aaa::GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  std::printf("%s\n", code.source.c_str());

  // ---- (f) virtual execution + conformance ---------------------------------
  exec::VmOptions vm_opts;
  vm_opts.iterations = 100;
  vm_opts.period = ts;
  const exec::VmResult wcet_run =
      exec::run_executives(alg, arch, sched, code, vm_opts);
  const exec::ConformanceReport conf =
      exec::check_wcet_conformance(alg, arch, sched, wcet_run, ts);
  std::printf("VM (WCET): deadlock=%s, conformance=%s (max error %.2e over %zu "
              "instances)\n",
              wcet_run.deadlock ? "YES" : "no", conf.ok ? "exact" : "VIOLATED",
              conf.max_time_error, conf.checked_instances);
  exec::VmOptions rand_opts = vm_opts;
  rand_opts.bcet_fraction = 0.4;
  const exec::VmResult rand_run =
      exec::run_executives(alg, arch, sched, code, rand_opts);
  const exec::ConformanceReport order =
      exec::check_order_preservation(alg, arch, sched, rand_run);
  std::printf("VM (random exec times): deadlock=%s, order preserved=%s\n",
              rand_run.deadlock ? "YES" : "no", order.ok ? "yes" : "NO");

  // ---- (g) graph of delays + co-simulation ---------------------------------
  const translate::GraphOfDelays god =
      translate::build_graph_of_delays(m, alg, arch, sched, {});
  translate::wire_completion(m, god, alg.find("sense"), sense, sense.event_in());
  translate::wire_completion(m, god, alg.find("ctrl"), ctrl, ctrl.event_in());
  translate::wire_completion(m, god, alg.find("act"), act, act.event_in());

  sim::SimOptions sim_opts;
  sim_opts.end_time = 1.5;
  sim_opts.integrator.max_step = 1e-4;
  sim::Simulator simulator(m, sim_opts);
  const sim::Trace& trace = simulator.run();

  const auto y = trace.series(m.index_of(probe_y));
  const control::StepInfo step = control::step_info(y, 1.0);
  const latency::LatencySeries act_lat =
      latency::analyze_block_activations(trace, "act", ts, "actuation");
  std::printf("co-simulation: IAE=%.5f overshoot=%.2f%% settle=%.3fs\n",
              control::iae(y, 1.0), step.overshoot_pct, step.settling_time);
  std::printf("%s\n", latency::to_table(act_lat, 5).c_str());
  return 0;
}
