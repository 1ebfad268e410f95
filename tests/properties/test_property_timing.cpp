// Property sweep of the schedule -> graph-of-delays translation (Fig. 4
// exactness, generalized): for random workloads and architectures, under
// WCET execution the simulated completion instants of EVERY operation must
// equal the schedule instants shifted by k*period, for several periods.
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "blocks/discrete.hpp"
#include "random_graphs.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim::translate {
namespace {

class TimingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimingProperty, EventChainExactUnderWcet) {
  math::Rng rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    const aaa::AlgorithmGraph alg = ecsim::testing::random_dag(rng, 8, 1.0);
    const aaa::ArchitectureGraph arch = ecsim::testing::random_bus(rng);
    const aaa::Schedule sched = aaa::adequate(alg, arch);
    ASSERT_LT(sched.makespan(), 1.0);

    sim::Model m;
    const GraphOfDelays god = build_graph_of_delays(m, alg, arch, sched, {});
    std::vector<blocks::EventCounter*> counters;
    for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
      auto& n = m.add<blocks::EventCounter>("done_" + alg.op(op).name);
      wire_completion(m, god, op, n, 0);
      counters.push_back(&n);
    }
    sim::Simulator s(m, sim::SimOptions{.end_time = 2.999});
    s.run();
    for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
      const auto times =
          s.trace().activation_times_by_name("done_" + alg.op(op).name);
      ASSERT_EQ(times.size(), 3u) << alg.op(op).name;
      const double expect = sched.of_op(op).end;
      for (std::size_t k = 0; k < times.size(); ++k) {
        EXPECT_NEAR(times[k], expect + static_cast<double>(k), 1e-9)
            << alg.op(op).name << " iteration " << k;
      }
    }
  }
}

TEST_P(TimingProperty, StochasticTimesBoundedByWcetInstants) {
  math::Rng rng(GetParam() * 211);
  const aaa::AlgorithmGraph alg = ecsim::testing::random_dag(rng, 7, 1.0);
  const aaa::ArchitectureGraph arch = ecsim::testing::random_bus(rng);
  const aaa::Schedule sched = aaa::adequate(alg, arch);

  sim::Model m;
  GodOptions opts;
  opts.bcet_fraction = 0.1;
  const GraphOfDelays god = build_graph_of_delays(m, alg, arch, sched, opts);
  const aaa::OpId last = alg.num_operations() - 1;
  auto& n = m.add<blocks::EventCounter>("done");
  wire_completion(m, god, last, n, 0);
  sim::Simulator s(m, sim::SimOptions{.end_time = 4.999, .seed = GetParam()});
  s.run();
  const auto times = s.trace().activation_times_by_name("done");
  ASSERT_EQ(times.size(), 5u);
  const double wcet_end = sched.of_op(last).end;
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_LE(times[k], static_cast<double>(k) + wcet_end + 1e-9);
    EXPECT_GT(times[k], static_cast<double>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

}  // namespace
}  // namespace ecsim::translate
