// Multirate expansion: a fast inner loop (every base period) + a slow outer
// supervisor (every 4th period) flattened over the hyperperiod, then pushed
// through the unchanged adequation / codegen / VM / graph-of-delays pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "aaa/multirate.hpp"
#include "blocks/discrete.hpp"
#include "exec/conformance.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim::aaa {
namespace {

MultirateSpec inner_outer(double base = 0.005) {
  MultirateSpec spec;
  spec.name = "inner-outer";
  spec.base_period = base;
  const std::size_t sense =
      spec.add_op({"sense", OpKind::kSensor, {{"cpu", 1e-4}}, 1, "P0"});
  const std::size_t inner =
      spec.add_op({"inner", OpKind::kCompute, {{"cpu", 4e-4}}, 1, {}});
  const std::size_t outer =
      spec.add_op({"outer", OpKind::kCompute, {{"cpu", 1.2e-3}}, 4, {}});
  const std::size_t act =
      spec.add_op({"act", OpKind::kActuator, {{"cpu", 1e-4}}, 1, "P0"});
  spec.add_dep(sense, inner, 4.0);
  spec.add_dep(sense, outer, 4.0);
  spec.add_dep(outer, inner, 2.0);  // slow set-point feeds the fast loop
  spec.add_dep(inner, act, 4.0);
  return spec;
}

TEST(Multirate, SpecValidation) {
  MultirateSpec spec;
  EXPECT_THROW(spec.add_op({"x", OpKind::kCompute, {{"cpu", 1.0}}, 0, {}}),
               std::invalid_argument);
  EXPECT_THROW(expand_hyperperiod(spec), std::invalid_argument);
  spec.base_period = 0.0;
  spec.add_op({"x", OpKind::kCompute, {{"cpu", 1.0}}, 1, {}});
  EXPECT_THROW(expand_hyperperiod(spec), std::invalid_argument);
  EXPECT_THROW(spec.add_dep(0, 0), std::invalid_argument);
  EXPECT_THROW(spec.add_dep(0, 5), std::out_of_range);
}

TEST(Multirate, HyperperiodFactorIsLcm) {
  MultirateSpec spec;
  spec.base_period = 0.01;
  spec.add_op({"a", OpKind::kCompute, {{"cpu", 1.0}}, 2, {}});
  spec.add_op({"b", OpKind::kCompute, {{"cpu", 1.0}}, 3, {}});
  EXPECT_EQ(spec.hyperperiod_factor(), 6u);
}

TEST(Multirate, ExpansionShape) {
  const MultirateSpec spec = inner_outer();
  const AlgorithmGraph alg = expand_hyperperiod(spec);
  EXPECT_DOUBLE_EQ(alg.period(), 0.02);  // 4 * base
  // 4 sense + 4 inner + 1 outer + 4 act = 13 instances.
  EXPECT_EQ(alg.num_operations(), 13u);
  // Releases staggered by base period.
  EXPECT_DOUBLE_EQ(alg.op(alg.find("sense@0")).release, 0.0);
  EXPECT_DOUBLE_EQ(alg.op(alg.find("sense@2")).release, 0.01);
  EXPECT_DOUBLE_EQ(alg.op(alg.find("outer@0")).release, 0.0);
  // Rate conversion: every inner instance reads outer@0 (latest released);
  // outer@0 reads sense@0.
  const OpId outer0 = alg.find("outer@0");
  for (std::size_t k = 0; k < 4; ++k) {
    const auto preds = alg.predecessors(alg.find(instance_name("inner", k)));
    EXPECT_NE(std::find(preds.begin(), preds.end(), outer0), preds.end())
        << "inner@" << k;
  }
  EXPECT_EQ(alg.predecessors(outer0),
            std::vector<OpId>{alg.find("sense@0")});
}

TEST(Multirate, SchedulesAndValidates) {
  const AlgorithmGraph alg = expand_hyperperiod(inner_outer());
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  const Schedule sched = adequate(alg, arch);
  EXPECT_NO_THROW(sched.validate(alg, arch));
  // Instance starts respect their releases.
  for (const ScheduledOp& so : sched.ops()) {
    EXPECT_GE(so.start + 1e-12, alg.op(so.op).release) << alg.op(so.op).name;
  }
  EXPECT_LT(sched.makespan(), alg.period());
}

TEST(Multirate, VmConformanceOverHyperperiods) {
  const AlgorithmGraph alg = expand_hyperperiod(inner_outer());
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  const Schedule sched = adequate(alg, arch);
  const GeneratedCode code = generate_executives(alg, arch, sched);
  exec::VmOptions opts;
  opts.iterations = 6;
  opts.period = alg.period();
  const exec::VmResult vm = exec::run_executives(alg, arch, sched, code, opts);
  const exec::ConformanceReport rep =
      exec::check_wcet_conformance(alg, arch, sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
}

TEST(Multirate, ReleaseGatingHoldsUnderFastExecution) {
  const AlgorithmGraph alg = expand_hyperperiod(inner_outer());
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  const Schedule sched = adequate(alg, arch);
  const GeneratedCode code = generate_executives(alg, arch, sched);
  exec::VmOptions opts;
  opts.iterations = 10;
  opts.period = alg.period();
  opts.bcet_fraction = 0.05;
  opts.seed = 31;
  const exec::VmResult vm = exec::run_executives(alg, arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  for (const exec::OpInstance& oi : vm.ops) {
    const double expect_release =
        alg.op(oi.op).release +
        static_cast<double>(oi.iteration) * alg.period();
    if (alg.op(oi.op).release > 0.0 ||
        alg.op(oi.op).kind == OpKind::kSensor) {
      EXPECT_GE(oi.start + 1e-12, expect_release) << alg.op(oi.op).name;
    }
  }
}

TEST(Multirate, GraphOfDelaysReproducesHyperperiodSchedule) {
  const AlgorithmGraph alg = expand_hyperperiod(inner_outer());
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  const Schedule sched = adequate(alg, arch);
  sim::Model m;
  const translate::GraphOfDelays god =
      translate::build_graph_of_delays(m, alg, arch, sched, {});
  std::vector<std::string> names;
  for (OpId op = 0; op < alg.num_operations(); ++op) {
    auto& n = m.add<blocks::EventCounter>("done_" + alg.op(op).name);
    translate::wire_completion(m, god, op, n, 0);
    names.push_back("done_" + alg.op(op).name);
  }
  sim::Simulator s(m, sim::SimOptions{.end_time = 3 * 0.02 - 1e-6});
  s.run();
  for (OpId op = 0; op < alg.num_operations(); ++op) {
    const auto times = s.trace().activation_times_by_name(names[op]);
    ASSERT_EQ(times.size(), 3u) << names[op];
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(times[k],
                  sched.of_op(op).end + 0.02 * static_cast<double>(k), 1e-9)
          << names[op];
    }
  }
}

TEST(Multirate, FastProducerSlowConsumerMapping) {
  // Producer every period, consumer every 2nd: consumer@j reads
  // producer@(2j), the instance released simultaneously.
  MultirateSpec spec;
  spec.base_period = 0.01;
  const std::size_t prod =
      spec.add_op({"p", OpKind::kSensor, {{"cpu", 1e-4}}, 1, {}});
  const std::size_t cons =
      spec.add_op({"c", OpKind::kCompute, {{"cpu", 1e-4}}, 2, {}});
  // Stretch the hyperperiod to 4 base periods so the consumer has two
  // instances (c@0 at 0, c@1 at 0.02).
  spec.add_op({"slow", OpKind::kCompute, {{"cpu", 1e-4}}, 4, {}});
  spec.add_dep(prod, cons, 1.0);
  const AlgorithmGraph alg = expand_hyperperiod(spec);
  EXPECT_EQ(alg.predecessors(alg.find("c@0")),
            std::vector<OpId>{alg.find("p@0")});
  EXPECT_EQ(alg.predecessors(alg.find("c@1")),
            std::vector<OpId>{alg.find("p@2")});
}

}  // namespace
}  // namespace ecsim::aaa
