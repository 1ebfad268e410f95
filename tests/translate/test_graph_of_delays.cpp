// Validates the core claim of the paper's §3.2 translation rules: the event
// network built from the SynDEx schedule reproduces, inside the hybrid
// simulation, the exact completion instants of every operation (sequencing,
// Fig. 4), joins inter-processor communications correctly (synchronization)
// and exhibits conditioning jitter (Fig. 5).
#include "translate/graph_of_delays.hpp"

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "blocks/discrete.hpp"
#include "exec/executive_vm.hpp"
#include "mathlib/stats.hpp"
#include "sim/simulator.hpp"

namespace ecsim::translate {
namespace {

struct DistributedChain {
  aaa::AlgorithmGraph alg{"chain", 0.01};
  aaa::ArchitectureGraph arch{
      aaa::ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  aaa::Schedule sched{0, 0};

  DistributedChain() {
    const aaa::OpId s =
        alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
    const aaa::OpId c =
        alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    const aaa::OpId a =
        alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
  }
};

std::vector<sim::Time> run_and_collect(sim::Model& m, const std::string& name,
                                       double t_end, std::uint64_t seed = 1) {
  sim::SimOptions opts;
  opts.end_time = t_end;
  opts.seed = seed;
  sim::Simulator s(m, opts);
  s.run();
  return s.trace().activation_times_by_name(name);
}

TEST(GraphOfDelays, EventChainReproducesScheduleInstantsExactly) {
  DistributedChain f;
  sim::Model m;
  auto& probe = m.add<blocks::EventCounter>("act_done");
  const GraphOfDelays god =
      build_graph_of_delays(m, f.alg, f.arch, f.sched, {});
  wire_completion(m, god, f.alg.find("act"), probe, 0);

  const auto times = run_and_collect(m, "act_done", 0.0499);
  const double expect = f.sched.of_op(f.alg.find("act")).end;
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(times[k], expect + 0.01 * static_cast<double>(k), 1e-12);
  }
}

TEST(GraphOfDelays, AllOpsGetCompletionSources) {
  DistributedChain f;
  sim::Model m;
  const GraphOfDelays god =
      build_graph_of_delays(m, f.alg, f.arch, f.sched, {});
  EXPECT_EQ(god.op_completion.size(), 3u);
  EXPECT_NE(god.clock, nullptr);
}

TEST(GraphOfDelays, ExecutionTimeVariationOnlyEverEarlier) {
  DistributedChain f;
  sim::Model m;
  auto& n = m.add<blocks::EventCounter>("done");
  GodOptions opts;
  opts.bcet_fraction = 0.2;
  const GraphOfDelays god =
      build_graph_of_delays(m, f.alg, f.arch, f.sched, opts);
  wire_completion(m, god, f.alg.find("act"), n, 0);
  const auto times = run_and_collect(m, "done", 0.0999, 5);
  const double wcet_end = f.sched.of_op(f.alg.find("act")).end;
  ASSERT_EQ(times.size(), 10u);
  bool any_strictly_earlier = false;
  for (std::size_t k = 0; k < times.size(); ++k) {
    const double offset = times[k] - 0.01 * static_cast<double>(k);
    EXPECT_LE(offset, wcet_end + 1e-12);
    EXPECT_GT(offset, 0.0);
    if (offset < wcet_end - 1e-6) any_strictly_earlier = true;
  }
  EXPECT_TRUE(any_strictly_earlier);
}

TEST(GraphOfDelays, ConditioningProducesJitter) {
  // Conditional controller: branch WCETs 1e-4 vs 4e-3 on one processor.
  aaa::AlgorithmGraph alg("cond", 0.01);
  const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4);
  aaa::Operation mode;
  mode.name = "ctrl";
  mode.kind = aaa::OpKind::kCompute;
  mode.branches = {aaa::Branch{"fast", {{"cpu", 1e-4}}},
                   aaa::Branch{"slow", {{"cpu", 4e-3}}}};
  const aaa::OpId c = alg.add_operation(std::move(mode));
  const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4);
  alg.add_dependency(s, c, 1.0);
  alg.add_dependency(c, a, 1.0);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  const aaa::Schedule sched = aaa::adequate(alg, arch);

  sim::Model m;
  auto& n = m.add<blocks::EventCounter>("done");
  GodOptions opts;
  opts.branch = aaa::BranchChoice::kUniform;
  const GraphOfDelays god = build_graph_of_delays(m, alg, arch, sched, opts);
  wire_completion(m, god, a, n, 0);
  const auto times = run_and_collect(m, "done", 0.999, 7);
  ASSERT_GE(times.size(), 50u);
  std::vector<double> offsets;
  for (std::size_t k = 0; k < times.size(); ++k) {
    offsets.push_back(times[k] - 0.01 * static_cast<double>(k));
  }
  const double jitter = math::peak_to_peak(offsets);
  EXPECT_NEAR(jitter, 4e-3 - 1e-4, 1e-9);  // branch asymmetry shows up fully
}

TEST(GraphOfDelays, BelowWcetInstantsAreTheExecutivesInstants) {
  // A conditional controller across the bus, below WCET with random
  // branches: the graph of delays and the executive VM draw the same keyed
  // times, so the actuator completes at the same instants in both.
  DistributedChain f;
  aaa::Operation& ctrl = f.alg.op(f.alg.find("ctrl"));
  ctrl.branches = {aaa::Branch{"fast", {{"cpu", 1e-4}}},
                   aaa::Branch{"slow", {{"cpu", 2e-3}}}};
  const aaa::Schedule sched = aaa::adequate(f.alg, f.arch);
  exec::VmOptions vm_opts;
  vm_opts.iterations = 20;
  vm_opts.period = f.alg.period();
  vm_opts.seed = 4;
  vm_opts.bcet_fraction = 0.4;
  vm_opts.branch = aaa::BranchChoice::kUniform;
  const exec::VmResult vm = exec::run_executives(
      f.alg, f.arch, sched, aaa::generate_executives(f.alg, f.arch, sched),
      vm_opts);
  ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;

  sim::Model m;
  auto& n = m.add<blocks::EventCounter>("done");
  GodOptions opts;
  opts.bcet_fraction = 0.4;
  opts.branch = aaa::BranchChoice::kUniform;
  const GraphOfDelays god = build_graph_of_delays(m, f.alg, f.arch, sched, opts);
  wire_completion(m, god, f.alg.find("act"), n, 0);
  const auto times = run_and_collect(m, "done", 0.1995, 4);
  const std::vector<double> expect = vm.completions(f.alg.find("act"));
  ASSERT_EQ(times.size(), expect.size());
  std::vector<double> offsets;
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(times[k], expect[k], 1e-12) << "iteration " << k;
    offsets.push_back(times[k] - 0.01 * static_cast<double>(k));
  }
  EXPECT_GT(math::peak_to_peak(offsets), 1e-3);  // both branches were taken
}

TEST(GraphOfDelays, OverloadedScheduleRejected) {
  aaa::AlgorithmGraph alg("slow", 0.001);  // period shorter than makespan
  alg.add_simple("sense", aaa::OpKind::kSensor, 1e-2);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  sim::Model m;
  EXPECT_THROW(build_graph_of_delays(m, alg, arch, sched, {}),
               std::runtime_error);
}

TEST(GraphOfDelays, MissingPeriodRejected) {
  aaa::AlgorithmGraph alg("np", 0.0);
  alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4);
  const auto arch = aaa::ArchitectureGraph::bus_architecture(1, 1.0);
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  sim::Model m;
  EXPECT_THROW(build_graph_of_delays(m, alg, arch, sched, {}),
               std::runtime_error);
}

TEST(GraphOfDelays, WireCompletionUnknownOpThrows) {
  DistributedChain f;
  sim::Model m;
  auto& n = m.add<blocks::EventCounter>("n");
  const GraphOfDelays god =
      build_graph_of_delays(m, f.alg, f.arch, f.sched, {});
  EXPECT_THROW(wire_completion(m, god, 99, n, 0), std::out_of_range);
}

}  // namespace
}  // namespace ecsim::translate
