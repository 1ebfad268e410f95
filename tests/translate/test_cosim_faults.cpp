// Fault injection on the control side of the flow: GodOptions::fault_plan
// gates the comm-completion events of the graph of delays, so the translated
// co-simulation shows stale-sample behaviour instead of crashing
// (DESIGN.md §3.5).
#include <gtest/gtest.h>

#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "plants/dc_servo.hpp"
#include "translate/cosim.hpp"

namespace ecsim::translate {
namespace {

LoopSpec servo_spec() {
  const control::StateSpace servo_ct = [] {
    control::StateSpace s = plants::dc_servo();
    s.c = math::Matrix::identity(2);
    s.d = math::Matrix::zeros(2, 1);
    return s;
  }();
  const double ts = 0.01;
  const control::StateSpace servo_dt = control::c2d(servo_ct, ts);
  const control::LqrResult lqr = control::dlqr(
      servo_dt, math::Matrix::diag({100.0, 0.01}), math::Matrix{{1e-3}});
  control::StateSpace tracking = servo_dt;
  tracking.c = math::Matrix{{1.0, 0.0}};
  tracking.d = math::Matrix{{0.0}};
  const double nbar = control::reference_gain(tracking, lqr.k);

  LoopSpec spec;
  spec.plant = servo_ct;
  spec.controller = control::state_feedback_controller(lqr.k, nbar, ts);
  spec.ts = ts;
  spec.t_end = 0.6;
  spec.ref = 1.0;
  spec.input = ControllerInput::kStateRef;
  return spec;
}

DistributedSpec cross_bus_spec() {
  DistributedSpec dist;
  dist.bind_ctrl = "P1";  // controller across the bus: real message traffic
  return dist;
}

TEST(CosimFaults, ZeroProbabilityPlanIsTransparent) {
  const LoopSpec spec = servo_spec();
  const DistributedSpec plain = cross_bus_spec();
  DistributedSpec armed = plain;
  armed.god.fault_plan.message_loss("bus", 0.0);
  armed.god.fault_plan.message_delay("bus", 0.0, 0.005);
  const CosimOutcome a = run_distributed_loop(spec, plain);
  const CosimOutcome b = run_distributed_loop(spec, armed);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.iae, b.iae);
  EXPECT_EQ(a.itae, b.itae);
  EXPECT_EQ(b.messages_lost, 0u);
  EXPECT_EQ(b.messages_deferred, 0u);
}

TEST(CosimFaults, MessageLossDegradesControlPerformance) {
  const LoopSpec spec = servo_spec();
  const DistributedSpec plain = cross_bus_spec();
  DistributedSpec lossy = plain;
  lossy.god.fault_plan.message_loss("bus", 0.3);
  const CosimOutcome clean = run_distributed_loop(spec, plain);
  const CosimOutcome faulted = run_distributed_loop(spec, lossy);
  EXPECT_GT(faulted.messages_lost, 0u);
  // The S/H boundary holds the last delivered sample, so the loop survives —
  // with worse tracking than the fault-free run.
  EXPECT_GE(faulted.iae, clean.iae);
  EXPECT_GT(faulted.cost, clean.cost);
}

TEST(CosimFaults, MessageDelayIsAccounted) {
  const LoopSpec spec = servo_spec();
  DistributedSpec dist = cross_bus_spec();
  dist.god.fault_plan.message_delay("bus", 1.0, 0.002);
  const CosimOutcome out = run_distributed_loop(spec, dist);
  EXPECT_EQ(out.messages_lost, 0u);
  EXPECT_GT(out.messages_deferred, 0u);
}

TEST(CosimFaults, SamePlanReplaysIdentically) {
  const LoopSpec spec = servo_spec();
  DistributedSpec dist = cross_bus_spec();
  dist.god.fault_plan.seed = 5;
  dist.god.fault_plan.message_loss("bus", 0.2);
  const CosimOutcome a = run_distributed_loop(spec, dist);
  const CosimOutcome b = run_distributed_loop(spec, dist);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.iae, b.iae);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
}

}  // namespace
}  // namespace ecsim::translate
