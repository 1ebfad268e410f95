// Native backend guards (DESIGN.md §3.6): the generated-code path must be
// bit-identical to the interpreter — same trace events, same signal doubles,
// same keyed draws — on the canonical examples, on random hybrid
// diagrams, and with a fault gate armed; and a native request must degrade
// to the interpreter with a recorded reason (never an abort) when the
// toolchain or the model can't take the codegen path.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/kind.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/examples.hpp"
#include "blocks/sources.hpp"
#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "fault/comm_gate.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "par/fault_sweep.hpp"
#include "par/sweep.hpp"
#include "plants/dc_servo.hpp"
#include "properties/random_graphs.hpp"
#include "translate/cosim.hpp"

namespace {

using namespace ecsim;

backend::RunOptions opts_for(backend::Kind k, double end_time = 1.0,
                             std::uint64_t seed = 1) {
  backend::RunOptions o;
  o.kind = k;
  o.sim.end_time = end_time;
  o.sim.seed = seed;
  return o;
}

/// Runs both backends and asserts the native one actually ran and produced
/// the interpreter's exact trace.
void expect_bit_identical(sim::Model& model, double end_time,
                          std::uint64_t seed = 1) {
  backend::RunResult interp =
      backend::run(model, opts_for(backend::Kind::kInterp, end_time, seed));
  backend::RunResult native =
      backend::run(model, opts_for(backend::Kind::kNative, end_time, seed));
  ASSERT_EQ(native.used, backend::Kind::kNative)
      << "fell back: " << native.fallback_reason;
  EXPECT_EQ(native.events_dispatched, interp.events_dispatched);
  EXPECT_TRUE(native.trace == interp.trace);
}

TEST(NativeBackend, ChainsTraceBitIdentical) {
  sim::Model m = blocks::examples::make_chains(8);
  expect_bit_identical(m, 0.25);
}

TEST(NativeBackend, ServoTraceBitIdentical) {
  sim::Model m = blocks::examples::make_servo();
  expect_bit_identical(m, 1.0);
}

// Each diagram also runs natively under full_refresh (the whole network
// re-evaluated at every refresh point), which must still give the
// interpreter's incremental trace.
TEST(NativeBackend, RandomHybridDiagramsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    math::Rng rng(seed);
    sim::Model m = ecsim::testing::random_block_model(rng);
    SCOPED_TRACE("model seed " + std::to_string(seed));
    expect_bit_identical(m, 0.5, seed * 17 + 1);

    const backend::RunResult interp = backend::run(
        m, opts_for(backend::Kind::kInterp, 0.5, seed * 17 + 1));
    backend::RunOptions full =
        opts_for(backend::Kind::kNative, 0.5, seed * 17 + 1);
    full.sim.full_refresh = true;
    const backend::RunResult native = backend::run(m, full);
    ASSERT_EQ(native.used, backend::Kind::kNative)
        << "fell back: " << native.fallback_reason;
    EXPECT_EQ(native.events_dispatched, interp.events_dispatched);
    EXPECT_TRUE(native.trace == interp.trace);
  }
}

// A comm-gate fault chain (loss + delay + duplicate entries) is describable
// IR: the generated module must consume the gate's hash-derived decisions in
// the exact same order as the interpreter.
TEST(NativeBackend, FaultGateArmedBitIdentical) {
  sim::Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1e-3);
  fault::CommGate gate;
  gate.seed = 42;
  gate.period = 1.0;
  gate.entries.push_back({0, fault::CommGateEntry::Kind::kLoss, 0.3, 0.0, 0,
                          0.0, 0.5});
  gate.entries.push_back({0, fault::CommGateEntry::Kind::kDelay, 0.4, 2e-4, 0,
                          0.2, 1.0});
  auto& gateblk = m.add<blocks::EventFault>("gate", gate);
  auto& d = m.add<blocks::EventDelay>("d", 1e-4);
  auto& n = m.add<blocks::EventCounter>("n");
  m.connect_event(clk, 0, gateblk, 0);
  m.connect_event(gateblk, 0, d, 0);
  m.connect_event(d, 0, n, 0);
  expect_bit_identical(m, 0.5);
}

TEST(NativeBackend, DisableEnvFallsBackWithReason) {
  ::setenv("ECSIM_NATIVE_DISABLE", "1", 1);
  sim::Model m = blocks::examples::make_chains(2);
  obs::MetricsRegistry reg;
  backend::RunOptions o = opts_for(backend::Kind::kNative, 0.1);
  o.metrics = &reg;
  backend::RunResult r = backend::run(m, o);
  ::unsetenv("ECSIM_NATIVE_DISABLE");
  EXPECT_EQ(r.used, backend::Kind::kInterp);
  EXPECT_EQ(r.fallback_reason.substr(0, 8), "disabled");
  EXPECT_EQ(reg.counter("backend.fallback.disabled").value(), 1u);
  EXPECT_GT(r.events_dispatched, 0u);
}

// Compiler missing: the run must still complete on the interpreter with an
// identical trace and a "toolchain" reason — never an abort. A fresh cache
// dir guarantees no cached .so can short-circuit the compile attempt.
TEST(NativeBackend, MissingCompilerFallsBackGracefully) {
  ::setenv("ECSIM_NATIVE_CXX", "/nonexistent/ecsim-no-such-cxx", 1);
  ::setenv("ECSIM_NATIVE_CACHE",
           (::testing::TempDir() + "ecsim_bogus_cxx_cache").c_str(), 1);
  sim::Model m = blocks::examples::make_chains(2);
  obs::MetricsRegistry reg;
  backend::RunOptions o = opts_for(backend::Kind::kNative, 0.1);
  o.metrics = &reg;
  backend::RunResult r = backend::run(m, o);
  ::unsetenv("ECSIM_NATIVE_CXX");
  ::unsetenv("ECSIM_NATIVE_CACHE");
  EXPECT_EQ(r.used, backend::Kind::kInterp);
  EXPECT_EQ(r.fallback_reason.substr(0, 9), "toolchain");
  EXPECT_EQ(reg.counter("backend.fallback.toolchain").value(), 1u);

  backend::RunResult interp =
      backend::run(m, opts_for(backend::Kind::kInterp, 0.1));
  EXPECT_TRUE(r.trace == interp.trace);
}

// An EventSelect's condition mapping is a user closure, so the block stays
// opaque in the IR and cannot be regenerated: clean fallback, not a codegen
// crash.
TEST(NativeBackend, OpaqueModelFallsBack) {
  sim::Model m;
  auto& cond = m.add<blocks::Constant>("cond", std::vector<double>{1.0});
  auto& clk = m.add<blocks::Clock>("clk", 1e-2);
  auto& sel = m.add_block(blocks::EventSelect::make_threshold("sel", 0.0));
  auto& n = m.add<blocks::EventCounter>("n");
  m.connect(cond, 0, sel, 0);
  m.connect_event(clk, 0, sel, 0);
  m.connect_event(sel, 1, n, 0);
  obs::MetricsRegistry reg;
  backend::RunOptions o = opts_for(backend::Kind::kNative, 0.1);
  o.metrics = &reg;
  backend::RunResult r = backend::run(m, o);
  EXPECT_EQ(r.used, backend::Kind::kInterp);
  EXPECT_EQ(r.fallback_reason.substr(0, 6), "opaque");
  EXPECT_EQ(reg.counter("backend.fallback.opaque").value(), 1u);
  EXPECT_GT(n.count(), 0u);
}

// Observability attached to the *sim* options rides through the ABI v2
// callback table since PR 7: the native engine runs anyway (no fallback)
// and reports the interpreter's exact metric values.
TEST(NativeBackend, SimMetricsStayNative) {
  sim::Model m = blocks::examples::make_chains(2);

  obs::MetricsRegistry interp_reg;
  backend::RunOptions oi = opts_for(backend::Kind::kInterp, 0.1);
  oi.sim.metrics = &interp_reg;
  backend::RunResult interp = backend::run(m, oi);

  obs::MetricsRegistry native_reg;
  backend::RunOptions on = opts_for(backend::Kind::kNative, 0.1);
  on.sim.metrics = &native_reg;
  backend::RunResult r = backend::run(m, on);
  ASSERT_EQ(r.used, backend::Kind::kNative)
      << "fell back: " << r.fallback_reason;
  EXPECT_TRUE(r.trace == interp.trace);
  EXPECT_GT(native_reg.counter("sim.events_dispatched").value(), 0u);
  EXPECT_EQ(native_reg.counter("sim.events_dispatched").value(),
            interp_reg.counter("sim.events_dispatched").value());
  EXPECT_EQ(native_reg.counter("sim.eval_calls").value(),
            interp_reg.counter("sim.eval_calls").value());
  EXPECT_EQ(native_reg.gauge("sim.queue_high_water").value(),
            interp_reg.gauge("sim.queue_high_water").value());
  EXPECT_EQ(native_reg.to_json(), interp_reg.to_json());
}

// ---- co-simulation routing (translate/cosim.hpp) ---------------------------

translate::LoopSpec servo_loop_spec() {
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

  translate::LoopSpec spec;
  spec.plant = servo_ct;
  spec.controller = control::state_feedback_controller(lqr.k, nbar, ts);
  spec.ts = ts;
  spec.t_end = 0.4;
  spec.ref = 1.0;
  spec.input = translate::ControllerInput::kStateRef;
  return spec;
}

// The co-simulation driver routed through the dispatcher: a native ideal
// loop must reproduce the interpreter's probe series bit for bit.
TEST(CosimBackend, IdealLoopNativeMatchesInterp) {
  translate::LoopSpec spec = servo_loop_spec();
  const translate::CosimOutcome interp = translate::run_ideal_loop(spec);
  spec.backend = backend::Kind::kNative;
  const translate::CosimOutcome native = translate::run_ideal_loop(spec);
  ASSERT_EQ(native.backend_used, backend::Kind::kNative)
      << "fell back: " << native.backend_fallback;
  EXPECT_EQ(native.y, interp.y);
  EXPECT_EQ(native.u, interp.u);
  EXPECT_EQ(native.cost, interp.cost);
  EXPECT_EQ(native.sense_latency.summary.max, interp.sense_latency.summary.max);
}

// A distributed run with a graph-of-delays is also codegen-eligible (the
// comm/op delays lower to describable EventDelay specs)...
TEST(CosimBackend, DistributedLoopNativeMatchesInterp) {
  translate::LoopSpec spec = servo_loop_spec();
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";  // controller across the bus: real message traffic
  const translate::CosimOutcome interp =
      translate::run_distributed_loop(spec, dist);
  spec.backend = backend::Kind::kNative;
  const translate::CosimOutcome native =
      translate::run_distributed_loop(spec, dist);
  ASSERT_EQ(native.backend_used, backend::Kind::kNative)
      << "fell back: " << native.backend_fallback;
  EXPECT_EQ(native.y, interp.y);
  EXPECT_EQ(native.u, interp.u);
  EXPECT_EQ(native.cost, interp.cost);
}

// Below WCET too: every execution time and branch choice is the keyed
// DurationSpec the executive VM draws (DESIGN.md §3.11), regenerated as
// data, so a jittered loop with a conditional controller runs natively with
// the interpreter's trajectories.
TEST(CosimBackend, JitteredDistributedLoopNativeMatchesInterp) {
  translate::LoopSpec spec = servo_loop_spec();
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";
  dist.ctrl_branch_wcets = {4e-4, 1.5e-3};
  dist.god.bcet_fraction = 0.4;
  dist.god.branch = aaa::BranchChoice::kUniform;
  const translate::CosimOutcome interp =
      translate::run_distributed_loop(spec, dist);
  spec.backend = backend::Kind::kNative;
  const translate::CosimOutcome native =
      translate::run_distributed_loop(spec, dist);
  ASSERT_EQ(native.backend_used, backend::Kind::kNative)
      << "fell back: " << native.backend_fallback;
  EXPECT_EQ(native.y, interp.y);
  EXPECT_EQ(native.u, interp.u);
  EXPECT_EQ(native.cost, interp.cost);
  EXPECT_GT(interp.act_latency.jitter, 0.0) << "no draw below WCET happened";
}

// ...and so is a faulted one: the fault gates are data, and the loss
// accounting replays their decisions over the activation counts in the
// trace. Every EXP-F1 cell (loss x delay on the bus) and a duplicate plan
// run natively with the interpreter's trajectories and fault counts.
TEST(CosimBackend, FaultedDistributedLoopNativeMatchesInterp) {
  translate::LoopSpec spec = sweep::servo_loop();
  translate::DistributedSpec dist;
  dist.bind_ctrl = "P1";
  std::vector<fault::FaultPlan> plans;
  for (const double loss : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    for (const double delay : {0.0, 0.001, 0.002}) {
      plans.push_back(sweep::fault_cell_plan("", loss, delay, 1.0, 1));
    }
  }
  fault::FaultPlan dup;
  dup.message_duplicate("bus", 0.3, 2);
  plans.push_back(dup);

  std::size_t lost = 0;
  std::size_t deferred = 0;
  for (const fault::FaultPlan& plan : plans) {
    SCOPED_TRACE(fault::to_string(plan));
    dist.god.fault_plan = plan;
    spec.backend = backend::Kind::kInterp;
    const translate::CosimOutcome interp =
        translate::run_distributed_loop(spec, dist);
    spec.backend = backend::Kind::kNative;
    const translate::CosimOutcome native =
        translate::run_distributed_loop(spec, dist);
    ASSERT_EQ(native.backend_used, backend::Kind::kNative)
        << "fell back: " << native.backend_fallback;
    EXPECT_TRUE(native.backend_fallback.empty());
    EXPECT_EQ(native.y, interp.y);
    EXPECT_EQ(native.u, interp.u);
    EXPECT_EQ(native.cost, interp.cost);
    EXPECT_EQ(native.messages_lost, interp.messages_lost);
    EXPECT_EQ(native.messages_deferred, interp.messages_deferred);
    lost += native.messages_lost;
    deferred += native.messages_deferred;
  }
  // The grid really faults: frames are lost and deferred somewhere in it.
  EXPECT_GT(lost, 0u);
  EXPECT_GT(deferred, 0u);
}

}  // namespace
