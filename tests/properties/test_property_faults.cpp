// Property sweep of the fault-injection determinism contract (DESIGN.md
// §3.5): for random workloads, random architectures and random fault plans,
// (a) a zero-probability plan is bit-transparent, (b) same-seed replays are
// bit-identical, and (c) fault sweeps on par::BatchRunner are serial-
// identical for any thread count.
#include <gtest/gtest.h>

#include <cstring>

#include "aaa/adequation.hpp"
#include "control/c2d.hpp"
#include "control/delay_compensation.hpp"
#include "control/lqr.hpp"
#include "exec/executive_vm.hpp"
#include "par/fault_sweep.hpp"
#include "plants/dc_servo.hpp"
#include "random_graphs.hpp"

namespace ecsim::fault {
namespace {

class FaultProperty : public ::testing::TestWithParam<std::uint64_t> {};

struct Workload {
  aaa::AlgorithmGraph alg;
  aaa::ArchitectureGraph arch;
  aaa::Schedule sched{0, 0};
  aaa::GeneratedCode code;
};

Workload random_workload(math::Rng& rng) {
  Workload w;
  w.alg = ecsim::testing::random_dag(rng, 8, 1.0);
  w.arch = ecsim::testing::random_bus(rng);
  w.sched = aaa::adequate(w.alg, w.arch);
  w.code = aaa::generate_executives(w.alg, w.arch, w.sched);
  return w;
}

FaultPlan random_plan(math::Rng& rng) {
  // Target "" (every medium / operation): random_bus may be a single node
  // with no media at all, and the contract must hold there too.
  FaultPlan plan;
  plan.seed = rng.uniform_int(1, 1 << 20);
  plan.message_loss("", 0.5 * rng.uniform());
  plan.message_delay("", 0.5 * rng.uniform(), 0.05 * rng.uniform());
  plan.message_duplicate("", 0.3 * rng.uniform(), 1);
  plan.op_overrun("", 0.3 * rng.uniform(), 1.0 + rng.uniform());
  return plan;
}

bool traces_identical(const exec::VmResult& a, const exec::VmResult& b) {
  if (a.ops.size() != b.ops.size() || a.comms.size() != b.comms.size() ||
      a.injections.size() != b.injections.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (std::memcmp(&a.ops[i], &b.ops[i], sizeof(exec::OpInstance)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    if (std::memcmp(&a.comms[i], &b.comms[i], sizeof(exec::CommInstance)) !=
        0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    // Field-wise: Injection has padding after the enum, so memcmp would
    // compare indeterminate bytes.
    const Injection& x = a.injections[i];
    const Injection& y = b.injections[i];
    if (x.kind != y.kind || x.fault != y.fault || x.comm != y.comm ||
        x.op != y.op || x.iteration != y.iteration || x.at != y.at) {
      return false;
    }
  }
  return true;
}

TEST_P(FaultProperty, ZeroProbabilityPlansAreBitTransparent) {
  math::Rng rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    const Workload w = random_workload(rng);
    exec::VmOptions plain;
    plain.iterations = 6;
    plain.period = 1.0;
    plain.bcet_fraction = 0.3;
    plain.seed = GetParam() * 7 + static_cast<std::uint64_t>(trial);
    exec::VmOptions armed = plain;
    armed.fault_plan.message_loss("", 0.0);
    armed.fault_plan.message_delay("", 0.0, 0.01);
    armed.fault_plan.op_overrun("", 0.0, 2.0);
    const exec::VmResult a =
        exec::run_executives(w.alg, w.arch, w.sched, w.code, plain);
    const exec::VmResult b =
        exec::run_executives(w.alg, w.arch, w.sched, w.code, armed);
    EXPECT_TRUE(traces_identical(a, b));
    EXPECT_TRUE(b.injections.empty());
  }
}

TEST_P(FaultProperty, SameSeedReplaysAreBitIdentical) {
  math::Rng rng(GetParam() * 13);
  for (int trial = 0; trial < 3; ++trial) {
    const Workload w = random_workload(rng);
    exec::VmOptions opts;
    opts.iterations = 6;
    opts.period = 1.0;
    opts.bcet_fraction = 0.3;
    opts.seed = GetParam() * 11 + static_cast<std::uint64_t>(trial);
    opts.fault_plan = random_plan(rng);
    opts.fault_policy = trial % 2 == 0 ? DegradationPolicy::kHoldLastSample
                                       : DegradationPolicy::kSkipCycle;
    const exec::VmResult a =
        exec::run_executives(w.alg, w.arch, w.sched, w.code, opts);
    const exec::VmResult b =
        exec::run_executives(w.alg, w.arch, w.sched, w.code, opts);
    ASSERT_FALSE(a.deadlock) << a.deadlock_info;
    EXPECT_TRUE(traces_identical(a, b));
    EXPECT_EQ(a.messages_lost, b.messages_lost);
    EXPECT_EQ(a.stale_reads, b.stale_reads);
  }
}

translate::LoopSpec servo_spec() {
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
  spec.t_end = 0.3;
  spec.input = translate::ControllerInput::kStateRef;
  return spec;
}

TEST_P(FaultProperty, FaultSweepIsThreadCountInvariant) {
  // ISSUE acceptance: the sweep grid must be bit-identical at 1, 2 and 7
  // threads — the injection decisions are pure functions of their
  // coordinates, never of the work-stealing interleaving.
  sweep::FaultGrid grid;
  grid.loop = servo_spec();
  grid.dist.bind_ctrl = "P1";
  grid.loss_rates = {0.0, 0.25};
  grid.delays = {0.0, 0.001};
  grid.fault_seed = GetParam();

  std::vector<std::vector<sweep::FaultCell>> runs;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    par::BatchOptions opts;
    opts.threads = threads;
    runs.push_back(sweep::run_fault_sweep(grid, opts));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].cost, runs[r][i].cost) << "cell " << i;
      EXPECT_EQ(runs[0][i].iae, runs[r][i].iae) << "cell " << i;
      EXPECT_EQ(runs[0][i].messages_lost, runs[r][i].messages_lost);
      EXPECT_EQ(runs[0][i].messages_deferred, runs[r][i].messages_deferred);
      EXPECT_EQ(runs[0][i].stable, runs[r][i].stable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperty,
                         ::testing::Values(31u, 32u, 33u));

}  // namespace
}  // namespace ecsim::fault
