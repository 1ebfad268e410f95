// Deadline analysis under execution-time overruns: when actual times exceed
// the WCET table (a mis-characterization), the non-preemptive executive runs
// late; check_deadlines quantifies the misses that WCET conformance would
// have excluded by construction.
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "exec/conformance.hpp"

namespace ecsim::exec {
namespace {

struct Chain {
  AlgorithmGraph alg{"chain", 0.001};  // tight 1 ms period
  ArchitectureGraph arch{aaa::ArchitectureGraph::bus_architecture(1, 1.0)};
  Schedule sched{0, 0};
  GeneratedCode code;

  Chain() {
    const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 2e-4);
    const aaa::OpId c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4);
    alg.add_dependency(s, c, 1.0);
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }
};

TEST(Deadlines, WcetExecutionMeetsAllDeadlines) {
  Chain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = 0.001;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const DeadlineReport rep = check_deadlines(f.alg, vm, 0.001);
  EXPECT_EQ(rep.misses, 0u);
  EXPECT_EQ(rep.checked_instances, 40u);
  EXPECT_DOUBLE_EQ(rep.worst_overrun, 0.0);
}

TEST(Deadlines, OverrunningExecutionIsDetected) {
  Chain f;
  VmOptions opts;
  opts.iterations = 10;
  opts.period = 0.001;
  // Actual times 2x the WCET: 0.2+0.5 ms -> 1.4 ms > 1 ms period.
  opts.fault_plan.op_overrun("", 1.0, 2.0);
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_FALSE(vm.deadlock);  // overruns delay, they do not deadlock
  const DeadlineReport rep = check_deadlines(f.alg, vm, 0.001);
  EXPECT_GT(rep.misses, 0u);
  EXPECT_GT(rep.worst_overrun, 0.0);
  EXPECT_FALSE(rep.details.empty());
  // Order is still preserved: the executive degrades gracefully.
  const ConformanceReport order =
      check_order_preservation(f.alg, f.arch, f.sched, vm);
  EXPECT_TRUE(order.ok) << order.violations;
}

TEST(Deadlines, OccasionalOverrunOnlyDelaysSomeIterations) {
  Chain f;
  VmOptions opts;
  opts.iterations = 50;
  opts.period = 0.001;
  // Every 10th ctrl execution (iterations 9, 19, ...) takes 3x its WCET.
  for (std::size_t k = 9; k < opts.iterations; k += 10) {
    const double nominal = static_cast<double>(k) * opts.period;
    opts.fault_plan.op_overrun("ctrl", 1.0, 3.0)
        .window(nominal - opts.period / 2, nominal + opts.period / 2);
  }
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  EXPECT_EQ(vm.op_overruns, 5u);
  const DeadlineReport rep = check_deadlines(f.alg, vm, 0.001);
  EXPECT_GT(rep.misses, 0u);
  EXPECT_LT(rep.misses, rep.checked_instances / 2);
}

}  // namespace
}  // namespace ecsim::exec
