// Fault injection inside the executive VM: degradation policies, per-kind
// effects on the instance traces, liveness (lost messages never deadlock the
// interpreter) and the same-seed bit-identity contract (DESIGN.md §3.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "exec/executive_vm.hpp"

namespace ecsim::exec {
namespace {

struct Fixture {
  aaa::AlgorithmGraph alg{"t", 0.01};
  aaa::ArchitectureGraph arch{aaa::ArchitectureGraph::bus_architecture(2, 1e5)};
  aaa::Schedule sched{0, 0};
  aaa::GeneratedCode code;
  aaa::OpId sense = aaa::kNone, ctrl = aaa::kNone, act = aaa::kNone;

  Fixture() {
    sense = alg.add_simple("sense", aaa::OpKind::kSensor, 2e-4, "P0");
    ctrl = alg.add_simple("ctrl", aaa::OpKind::kCompute, 1e-3, "P1");
    act = alg.add_simple("act", aaa::OpKind::kActuator, 2e-4, "P0");
    alg.add_dependency(sense, ctrl, 8.0);
    alg.add_dependency(ctrl, act, 8.0);
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }

  VmResult run(const VmOptions& opts) const {
    return run_executives(alg, arch, sched, code, opts);
  }

  static VmOptions base_options() {
    VmOptions opts;
    opts.iterations = 20;
    opts.period = 0.01;
    return opts;
  }
};

bool traces_identical(const VmResult& a, const VmResult& b) {
  if (a.ops.size() != b.ops.size() || a.comms.size() != b.comms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (std::memcmp(&a.ops[i], &b.ops[i], sizeof(OpInstance)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    if (std::memcmp(&a.comms[i], &b.comms[i], sizeof(CommInstance)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(VmFaults, ZeroProbabilityPlanIsBitTransparent) {
  Fixture f;
  VmOptions plain = Fixture::base_options();
  plain.bcet_fraction = 0.5;
  VmOptions armed = plain;
  armed.fault_plan.message_loss("bus", 0.0);
  armed.fault_plan.op_overrun("ctrl", 0.0, 3.0);
  const VmResult a = f.run(plain);
  const VmResult b = f.run(armed);
  EXPECT_TRUE(traces_identical(a, b));
  EXPECT_TRUE(b.injections.empty());
  EXPECT_EQ(b.messages_lost, 0u);
  EXPECT_EQ(b.stale_reads, 0u);
}

TEST(VmFaults, TotalLossWithHoldLastSampleStaysLive) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.fault_plan.message_loss("bus", 1.0);
  opts.fault_policy = fault::DegradationPolicy::kHoldLastSample;
  const VmResult r = f.run(opts);
  EXPECT_FALSE(r.deadlock) << r.deadlock_info;
  // Two bus transfers per iteration, all dropped.
  EXPECT_EQ(r.messages_lost, 2 * opts.iterations);
  EXPECT_GT(r.stale_reads, 0u);
  EXPECT_EQ(r.cycles_skipped, 0u);
  // Every operation instance still executed: holding the stale sample keeps
  // the full schedule alive.
  EXPECT_EQ(r.ops.size(), 3 * opts.iterations);
  ASSERT_FALSE(r.injections.empty());
  for (const fault::Injection& inj : r.injections) {
    EXPECT_EQ(inj.kind, fault::FaultKind::kMessageLoss);
    EXPECT_NE(inj.comm, aaa::kNone);
  }
}

TEST(VmFaults, TotalLossWithSkipCycleDropsComputations) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.fault_plan.message_loss("bus", 1.0);
  opts.fault_policy = fault::DegradationPolicy::kSkipCycle;
  const VmResult r = f.run(opts);
  EXPECT_FALSE(r.deadlock) << r.deadlock_info;
  EXPECT_GT(r.cycles_skipped, 0u);
  // Skipped cycles execute fewer operation instances than the full grid, yet
  // the interpreter still retires every iteration (sends keep firing).
  EXPECT_LT(r.ops.size(), 3 * opts.iterations);
  EXPECT_GT(r.ops.size(), 0u);
}

TEST(VmFaults, MessageDelayDefersTheConsumer) {
  Fixture f;
  VmOptions plain = Fixture::base_options();
  VmOptions delayed = plain;
  delayed.fault_plan.message_delay("bus", 1.0, 0.002);
  const VmResult a = f.run(plain);
  const VmResult b = f.run(delayed);
  EXPECT_FALSE(b.deadlock) << b.deadlock_info;
  EXPECT_EQ(b.messages_delayed, 2 * plain.iterations);
  const std::vector<Time> base_starts = a.starts(f.ctrl);
  const std::vector<Time> late_starts = b.starts(f.ctrl);
  ASSERT_EQ(base_starts.size(), late_starts.size());
  for (std::size_t i = 0; i < base_starts.size(); ++i) {
    EXPECT_GE(late_starts[i], base_starts[i] + 0.002) << "iteration " << i;
  }
}

TEST(VmFaults, DuplicationExtendsMediumOccupancy) {
  Fixture f;
  VmOptions plain = Fixture::base_options();
  VmOptions dup = plain;
  dup.fault_plan.message_duplicate("bus", 1.0, 2);
  const VmResult a = f.run(plain);
  const VmResult b = f.run(dup);
  EXPECT_FALSE(b.deadlock) << b.deadlock_info;
  EXPECT_EQ(b.messages_duplicated, 2 * plain.iterations);
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const Time base = a.comms[i].end - a.comms[i].start;
    const Time faulted = b.comms[i].end - b.comms[i].start;
    // 2 extra copies => the frame occupies the bus for 3x the transfer time.
    EXPECT_NEAR(faulted, 3.0 * base, 1e-12);
  }
}

TEST(VmFaults, OpOverrunInflatesExecutionTime) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.fault_plan.op_overrun("ctrl", 1.0, 2.0);
  const VmResult r = f.run(opts);  // bcet_fraction 1 => exactly WCET
  EXPECT_FALSE(r.deadlock) << r.deadlock_info;
  EXPECT_EQ(r.op_overruns, opts.iterations);
  for (const OpInstance& oi : r.ops) {
    if (oi.op != f.ctrl) continue;
    EXPECT_NEAR(oi.end - oi.start, 2e-3, 1e-12);
  }
}

TEST(VmFaults, NodeStopDefersOpsToTheRestart) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.fault_plan.node_stop("P1", 0.0, 0.015);
  const VmResult r = f.run(opts);
  EXPECT_FALSE(r.deadlock) << r.deadlock_info;
  EXPECT_GT(r.node_stalls, 0u);
  const std::vector<Time> ctrl_starts = r.starts(f.ctrl);
  ASSERT_FALSE(ctrl_starts.empty());
  EXPECT_GE(ctrl_starts.front(), 0.015);
  // P0's ops are unaffected by the outage window itself.
  EXPECT_LT(r.starts(f.sense).front(), 0.015);
}

TEST(VmFaults, WindowRestrictsInjectionsToNominalIterations) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  // period 0.01: window [0.05, 0.10) == iterations 5..9.
  opts.fault_plan.message_loss("bus", 1.0).window(0.05, 0.10);
  const VmResult r = f.run(opts);
  EXPECT_FALSE(r.deadlock) << r.deadlock_info;
  EXPECT_EQ(r.messages_lost, 2u * 5u);
  for (const fault::Injection& inj : r.injections) {
    EXPECT_GE(inj.iteration, 5u);
    EXPECT_LT(inj.iteration, 10u);
  }
}

TEST(VmFaults, SameSeedReplaysBitIdentically) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.bcet_fraction = 0.4;
  opts.fault_plan.seed = 99;
  opts.fault_plan.message_loss("bus", 0.3);
  opts.fault_plan.message_delay("bus", 0.3, 0.001);
  opts.fault_plan.op_overrun("", 0.2, 1.5);
  const VmResult a = f.run(opts);
  const VmResult b = f.run(opts);
  EXPECT_TRUE(traces_identical(a, b));
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    const fault::Injection& x = a.injections[i];
    const fault::Injection& y = b.injections[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.fault, y.fault);
    EXPECT_EQ(x.comm, y.comm);
    EXPECT_EQ(x.op, y.op);
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.at, y.at);
  }
  // A different plan seed must change something: the plan is live.
  VmOptions other = opts;
  other.fault_plan.seed = 100;
  EXPECT_FALSE(traces_identical(a, f.run(other)));
}

TEST(VmFaults, InjectionsAreReportedInDeterministicOrder) {
  Fixture f;
  VmOptions opts = Fixture::base_options();
  opts.fault_plan.message_loss("bus", 0.5);
  opts.fault_plan.op_overrun("", 0.5, 2.0);
  const VmResult r = f.run(opts);
  ASSERT_GT(r.injections.size(), 1u);
  EXPECT_TRUE(std::is_sorted(
      r.injections.begin(), r.injections.end(),
      [](const fault::Injection& x, const fault::Injection& y) {
        if (x.iteration != y.iteration) return x.iteration < y.iteration;
        return x.at < y.at;
      }));
}

}  // namespace
}  // namespace ecsim::exec
