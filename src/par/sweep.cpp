#include "par/sweep.hpp"

#include <cstdio>
#include <stdexcept>

#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "par/cell_metrics.hpp"
#include "plants/dc_servo.hpp"

namespace ecsim::sweep {

namespace {

void measure(const translate::CosimOutcome& out, SweepCell& cell) {
  cell.iae = out.iae;
  cell.ise = out.ise;
  cell.itae = out.itae;
  cell.cost = out.cost;
  cell.overshoot_pct = out.step.overshoot_pct;
  cell.act_latency_mean = out.act_latency.summary.mean;
  cell.act_jitter = out.act_latency.jitter;
  cell.stable = out.iae < kUnstableIae;
}

}  // namespace

std::vector<SweepCell> run_timing_sweep(const TimingGrid& grid,
                                        const par::BatchOptions& batch) {
  const std::size_t cols = grid.jitter_fracs.size();
  const std::size_t n = grid.latency_fracs.size() * cols;
  par::BatchRunner runner(batch);
  translate::LoopSpec loop = grid.loop;
  loop.threads = static_cast<unsigned>(runner.threads());  // ledger note
  CellMetrics cm(batch.metrics);
  return runner.map<SweepCell>(n, [&](par::TaskContext& ctx) {
    return cm.cell([&] {
      const double la_frac = grid.latency_fracs[ctx.index / cols];
      const double jitter_frac = grid.jitter_fracs[ctx.index % cols];
      SweepCell cell;
      cell.la_frac = la_frac;
      cell.jitter_frac = jitter_frac;
      measure(translate::run_latency_loop(loop, 0.0, la_frac * loop.ts,
                                          jitter_frac * loop.ts),
              cell);
      return cell;
    });
  });
}

std::vector<SweepCell> run_arch_sweep(const ArchitectureGrid& grid,
                                      const par::BatchOptions& batch) {
  const std::size_t cols = grid.wcet_scales.size();
  const std::size_t n = grid.bus_bandwidths.size() * cols;
  par::BatchRunner runner(batch);
  translate::LoopSpec loop = grid.loop;
  loop.threads = static_cast<unsigned>(runner.threads());  // ledger note
  CellMetrics cm(batch.metrics);
  return runner.map<SweepCell>(n, [&](par::TaskContext& ctx) {
    return cm.cell([&] {
      SweepCell cell;
      cell.bus_bandwidth = grid.bus_bandwidths[ctx.index / cols];
      cell.wcet_scale = grid.wcet_scales[ctx.index % cols];
      translate::DistributedSpec dist = grid.dist;
      dist.arch = aaa::ArchitectureGraph::bus_architecture(grid.processors,
                                                           cell.bus_bandwidth);
      dist.wcet_ctrl *= cell.wcet_scale;
      for (double& w : dist.ctrl_branch_wcets) w *= cell.wcet_scale;
      return unless_unschedulable(cell, [&](SweepCell& c) {
        measure(translate::run_distributed_loop(loop, dist), c);
      });
    });
  });
}

std::string to_csv(const std::vector<SweepCell>& cells) {
  std::string out =
      "la_frac,jitter_frac,bus_bandwidth,wcet_scale,iae,ise,itae,cost,"
      "overshoot_pct,act_latency_mean,act_jitter,schedulable,stable\n";
  char buf[320];
  for (const SweepCell& c : cells) {
    std::snprintf(buf, sizeof buf,
                  "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                  "%.17g,%.17g,%d,%d\n",
                  c.la_frac, c.jitter_frac, c.bus_bandwidth, c.wcet_scale,
                  c.iae, c.ise, c.itae, c.cost, c.overshoot_pct,
                  c.act_latency_mean, c.act_jitter, c.schedulable ? 1 : 0,
                  c.stable ? 1 : 0);
    out += buf;
  }
  return out;
}

translate::LoopSpec servo_loop(double ts, double t_end) {
  control::StateSpace servo = plants::dc_servo();
  servo.c = math::Matrix::identity(2);
  servo.d = math::Matrix::zeros(2, 1);
  const control::StateSpace servo_d = control::c2d(servo, ts);
  const control::LqrResult lqr = control::dlqr(
      servo_d, math::Matrix::diag({100.0, 0.01}), math::Matrix{{1e-3}});
  control::StateSpace pos = servo_d;
  pos.c = math::Matrix{{1.0, 0.0}};
  pos.d = math::Matrix{{0.0}};
  const double nbar = control::reference_gain(pos, lqr.k);

  translate::LoopSpec spec;
  spec.plant = servo;
  spec.controller = control::state_feedback_controller(lqr.k, nbar, ts);
  spec.ts = ts;
  spec.t_end = t_end;
  spec.ref = 1.0;
  spec.input = translate::ControllerInput::kStateRef;
  return spec;
}

}  // namespace ecsim::sweep
