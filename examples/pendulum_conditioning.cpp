// Conditioning study (paper §3.2.2 / Fig. 5) on the inverted pendulum: a
// mode-switching controller whose two branches have very different WCETs.
// The static schedule reserves the worst branch, but at run time the taken
// branch determines the actuation instant — producing input/output jitter
// that the graph of delays faithfully reproduces in co-simulation.
#include <cstdio>

#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "plants/inverted_pendulum.hpp"
#include "translate/cosim.hpp"

using namespace ecsim;

int main() {
  const double ts = 0.005;  // 200 Hz balancing loop
  control::StateSpace pend = plants::inverted_pendulum();
  pend.c = math::Matrix::identity(4);
  pend.d = math::Matrix::zeros(4, 1);
  const control::StateSpace pend_d = control::c2d(pend, ts);
  // Aggressive weights: short closed-loop time constants make the loop
  // genuinely sensitive to actuation timing.
  const control::LqrResult lqr =
      control::dlqr(pend_d, math::Matrix::diag({100.0, 1.0, 2000.0, 50.0}),
                    math::Matrix{{0.001}});
  control::StateSpace cart = pend_d;
  cart.c = math::Matrix{{1.0, 0.0, 0.0, 0.0}};
  cart.d = math::Matrix{{0.0}};
  const double nbar = control::reference_gain(cart, lqr.k);

  translate::LoopSpec spec;
  spec.plant = pend;
  spec.controller = control::state_feedback_controller(lqr.k, nbar, ts);
  spec.ts = ts;
  spec.t_end = 4.0;
  spec.ref = 0.1;  // move the cart 10 cm while balancing
  spec.input = translate::ControllerInput::kStateRef;
  spec.output_index = 0;

  const translate::CosimOutcome ideal = translate::run_ideal_loop(spec);

  std::printf("== inverted pendulum with a conditional control law ==\n\n");
  std::printf("%-18s %14s %14s %14s %12s\n", "branch WCETs [ms]",
              "act jitter[ms]", "IAE", "u RMS", "cart motion");
  std::printf("%-18s %14.3f %14.5f %14.3f %12s\n", "ideal", 0.0, ideal.iae,
              control::rms(ideal.u), "stable");

  // Sweep the asymmetry between the fast and slow branch.
  for (const double slow_ms : {0.5, 1.5, 3.0, 4.5}) {
    translate::DistributedSpec dist;
    dist.arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
    dist.wcet_sense = 1e-4;
    dist.wcet_act = 1e-4;
    dist.ctrl_branch_wcets = {0.2e-3, slow_ms * 1e-3};
    dist.god.branch = aaa::BranchChoice::kUniform;
    const translate::CosimOutcome out =
        translate::run_distributed_loop(spec, dist);
    char label[32];
    std::snprintf(label, sizeof label, "0.2 / %.1f", slow_ms);
    std::printf("%-18s %14.3f %14.5f %14.3f %12s\n", label,
                1e3 * out.act_latency.jitter, out.iae, control::rms(out.u),
                control::max_abs(out.y) < 10.0 ? "stable" : "UNSTABLE");
  }
  std::printf(
      "\nThe measured actuation jitter equals the branch WCET spread exactly "
      "(the co-simulation reproduces §3.2.2's conditioning effect), while the "
      "static schedule had to reserve the slow branch every period. This "
      "balancing loop happens to tolerate the jitter — a robustness margin "
      "the designer now *knows* instead of hopes for; bench_fig5 shows the "
      "same jitter wrecking the high-gain DC servo.\n");
  return 0;
}
