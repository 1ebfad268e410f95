// Property sweep of the full AAA flow (EXP-G1 in miniature): for random
// workloads, random architectures and random execution times, the generated
// executives must never deadlock, must preserve the per-component total
// order, and under exact-WCET execution must reproduce the schedule.
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "exec/conformance.hpp"
#include "random_graphs.hpp"

namespace ecsim::exec {
namespace {

class VmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmProperty, GeneratedCodeNeverDeadlocks) {
  math::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const AlgorithmGraph alg = ecsim::testing::random_dag(rng, 9, 1.0);
    const ArchitectureGraph arch = ecsim::testing::random_bus(rng);
    const Schedule sched = aaa::adequate(alg, arch);
    const GeneratedCode code = aaa::generate_executives(alg, arch, sched);

    VmOptions opts;
    opts.iterations = 8;
    opts.period = 1.0;
    opts.bcet_fraction = 0.05;
    opts.seed = GetParam() * 31 + static_cast<std::uint64_t>(trial);
    const VmResult vm = run_executives(alg, arch, sched, code, opts);
    ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
    EXPECT_EQ(vm.ops.size(), 8u * alg.num_operations());
    const ConformanceReport rep =
        check_order_preservation(alg, arch, sched, vm);
    EXPECT_TRUE(rep.ok) << rep.violations;
  }
}

TEST_P(VmProperty, WcetExecutionReproducesSchedule) {
  math::Rng rng(GetParam() * 17);
  const AlgorithmGraph alg = ecsim::testing::random_dag(rng, 8, 1.0);
  const ArchitectureGraph arch = ecsim::testing::random_bus(rng);
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  VmOptions opts;
  opts.iterations = 3;
  opts.period = 1.0;  // generous: makespan << period for these sizes
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(alg, arch, sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
}

TEST_P(VmProperty, CompletionTimesMonotoneInExecutionTimes) {
  // Faster execution can never delay any completion (fixed total order =>
  // no scheduling anomalies).
  math::Rng rng(GetParam() * 23);
  const AlgorithmGraph alg = ecsim::testing::random_dag(rng, 7, 1.0);
  const ArchitectureGraph arch = ecsim::testing::random_bus(rng);
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);

  VmOptions slow;
  slow.iterations = 5;
  slow.period = 1.0;
  const VmResult wcet_run = run_executives(alg, arch, sched, code, slow);

  VmOptions fast = slow;
  fast.bcet_fraction = 0.2;
  fast.seed = GetParam();
  const VmResult fast_run = run_executives(alg, arch, sched, code, fast);

  for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
    const auto w = wcet_run.completions(op);
    const auto f = fast_run.completions(op);
    ASSERT_EQ(w.size(), f.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      EXPECT_LE(f[k], w[k] + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace ecsim::exec
