#include "par/network_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "control/delay_compensation.hpp"
#include "mathlib/linalg.hpp"
#include "par/cell_metrics.hpp"
#include "par/sweep.hpp"
#include "plants/dc_servo.hpp"

namespace ecsim::sweep {

namespace {

/// Divergence threshold shared with bench::metric and the other sweeps.
constexpr double kUnstableIae = 1e3;

aaa::ArchitectureGraph network_arch(const NetworkGrid& grid,
                                    NetworkScenario scenario, double load) {
  aaa::ArchitectureGraph arch = aaa::ArchitectureGraph::bus_architecture(
      grid.processors, grid.bus_bandwidth, grid.bus_latency);
  const aaa::MediumId bus = arch.find_medium("bus");
  switch (scenario) {
    case NetworkScenario::kCan:
      arch.set_can(bus, grid.can_blocking);
      break;
    case NetworkScenario::kTdma:
      arch.set_tdma(bus, grid.tdma_slot, grid.tdma_slots);
      break;
  }
  if (load > 0.0) arch.set_background_load(bus, load);
  return arch;
}

NetworkCell evaluate_cell(const NetworkGrid& grid, double load,
                          NetworkScenario scenario) {
  NetworkCell cell;
  cell.bus_load = load;
  cell.scenario = scenario_code(scenario);
  translate::DistributedSpec dist = grid.dist;
  dist.arch = network_arch(grid, scenario, load);
  return unless_unschedulable(cell, [&](NetworkCell& c) {
    // Nominal pass: the as-designed controller on the real network, to
    // measure the actuation-latency distribution the bus actually delivers.
    const translate::CosimOutcome nominal =
        translate::run_distributed_loop(grid.loop, dist);
    c.act_latency_mean = nominal.act_latency.summary.mean;
    c.act_jitter = nominal.act_latency.jitter;
    c.nominal_iae = nominal.iae;
    c.nominal_cost = nominal.cost;
    // Retune pass: delay-aware LQR against the *measured* mean latency
    // (clamped to one period, the augmentation's validity range), then the
    // same network again with the retuned gains.
    const double tau = std::clamp(c.act_latency_mean, 0.0, grid.loop.ts);
    const control::DelayLqrResult aware = control::dlqr_with_input_delay(
        grid.design_plant, grid.loop.ts, tau,
        control::augment_q(grid.q, grid.r.rows()), grid.r);
    translate::LoopSpec retuned = grid.loop;
    retuned.controller =
        control::delayed_feedback_controller(aware.k, aware.nbar,
                                             grid.loop.ts);
    retuned.input = translate::ControllerInput::kStateRef;
    const translate::CosimOutcome out =
        translate::run_distributed_loop(retuned, dist);
    c.retuned_iae = out.iae;
    c.retuned_cost = out.cost;
    c.stability_margin =
        1.0 - math::spectral_radius(aware.augmented.a -
                                    aware.augmented.b * aware.k);
    c.stable = out.iae < kUnstableIae;
  });
}

}  // namespace

double scenario_code(NetworkScenario s) {
  return s == NetworkScenario::kCan ? 0.0 : 1.0;
}

NetworkScenario scenario_of_code(double code) {
  if (code == 0.0) return NetworkScenario::kCan;
  if (code == 1.0) return NetworkScenario::kTdma;
  throw std::invalid_argument("scenario_of_code: unknown code");
}

const char* to_string(NetworkScenario s) {
  return s == NetworkScenario::kCan ? "can" : "tdma";
}

NetworkScenario parse_scenario(const std::string& name) {
  if (name == "can") return NetworkScenario::kCan;
  if (name == "tdma") return NetworkScenario::kTdma;
  throw std::invalid_argument("parse_scenario: unknown scenario '" + name +
                              "' (can|tdma)");
}

std::vector<NetworkCell> run_network_sweep(const NetworkGrid& grid,
                                           const par::BatchOptions& batch) {
  const std::size_t cols = grid.scenarios.size();
  const std::size_t n = grid.bus_loads.size() * cols;
  par::BatchRunner runner(batch);
  NetworkGrid g = grid;
  g.loop.threads = static_cast<unsigned>(runner.threads());  // ledger note
  CellMetrics cm(batch.metrics);
  return runner.map<NetworkCell>(n, [&](par::TaskContext& ctx) {
    return cm.cell([&] {
      return evaluate_cell(g, g.bus_loads[ctx.index / cols],
                           g.scenarios[ctx.index % cols]);
    });
  });
}

std::string to_csv(const std::vector<NetworkCell>& cells) {
  std::string out =
      "bus_load,scenario,act_latency_mean,act_jitter,nominal_iae,"
      "nominal_cost,retuned_iae,retuned_cost,stability_margin,schedulable,"
      "stable\n";
  char buf[320];
  for (const NetworkCell& c : cells) {
    std::snprintf(buf, sizeof buf,
                  "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                  "%d,%d\n",
                  c.bus_load, c.scenario, c.act_latency_mean, c.act_jitter,
                  c.nominal_iae, c.nominal_cost, c.retuned_iae,
                  c.retuned_cost, c.stability_margin, c.schedulable ? 1 : 0,
                  c.stable ? 1 : 0);
    out += buf;
  }
  return out;
}

NetworkGrid network_servo_grid(double ts, double t_end) {
  NetworkGrid grid;
  grid.loop = servo_loop(ts, t_end);
  // Controller on the far processor: every sample and every control crosses
  // the bus, so the network is actually in the loop.
  grid.dist.bind_ctrl = "P1";
  grid.bus_loads = {0.0, 0.2, 0.4, 0.6, 0.8};
  grid.scenarios = {NetworkScenario::kCan, NetworkScenario::kTdma};
  grid.processors = 2;
  grid.bus_bandwidth = 1e5;
  grid.bus_latency = 0.0;
  grid.can_blocking = 5e-4;
  grid.tdma_slot = 5e-4;
  grid.tdma_slots = 2;
  control::StateSpace design = plants::dc_servo();
  design.c = math::Matrix{{1.0, 0.0}};
  design.d = math::Matrix{{0.0}};
  grid.design_plant = design;
  grid.q = math::Matrix::diag({100.0, 0.01});
  grid.r = math::Matrix{{1e-3}};
  return grid;
}

}  // namespace ecsim::sweep
