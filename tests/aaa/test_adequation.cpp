#include "aaa/adequation.hpp"

#include <gtest/gtest.h>

namespace ecsim::aaa {
namespace {

AlgorithmGraph chain3(double wcet_sense = 1e-4, double wcet_ctrl = 5e-4,
                      double wcet_act = 1e-4) {
  AlgorithmGraph g("chain", 0.01);
  const OpId s = g.add_simple("sense", OpKind::kSensor, wcet_sense);
  const OpId c = g.add_simple("ctrl", OpKind::kCompute, wcet_ctrl);
  const OpId a = g.add_simple("act", OpKind::kActuator, wcet_act);
  g.add_dependency(s, c, 8.0);
  g.add_dependency(c, a, 8.0);
  return g;
}

TEST(Adequation, SingleProcessorSequentialSchedule) {
  const AlgorithmGraph alg = chain3();
  const auto arch = ArchitectureGraph::bus_architecture(1, 1.0);
  const Schedule sched = adequate(alg, arch);
  sched.validate(alg, arch);
  EXPECT_NEAR(sched.makespan(), 7e-4, 1e-12);
  EXPECT_TRUE(sched.comms().empty());
  EXPECT_EQ(sched.ops_on(0).size(), 3u);
}

TEST(Adequation, ChainStaysOnOneProcessorWhenCommIsExpensive) {
  const AlgorithmGraph alg = chain3();
  // Slow bus: any migration costs more than it saves; a pure chain has no
  // parallelism anyway.
  auto arch = ArchitectureGraph::bus_architecture(2, 1.0, 0.1);
  const Schedule sched = adequate(alg, arch);
  sched.validate(alg, arch);
  EXPECT_TRUE(sched.comms().empty());
  EXPECT_NEAR(sched.makespan(), 7e-4, 1e-12);
}

TEST(Adequation, ParallelBranchesUseBothProcessors) {
  // Diamond: src -> (f, g) -> sink with heavy f, g: two processors halve
  // the middle stage despite cheap comms.
  AlgorithmGraph alg("diamond", 1.0);
  const OpId src = alg.add_simple("src", OpKind::kSensor, 0.01);
  const OpId f = alg.add_simple("f", OpKind::kCompute, 1.0);
  const OpId g = alg.add_simple("g", OpKind::kCompute, 1.0);
  const OpId sink = alg.add_simple("sink", OpKind::kActuator, 0.01);
  alg.add_dependency(src, f, 1.0);
  alg.add_dependency(src, g, 1.0);
  alg.add_dependency(f, sink, 1.0);
  alg.add_dependency(g, sink, 1.0);
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e6, 1e-6);
  const Schedule sched = adequate(alg, arch);
  sched.validate(alg, arch);
  EXPECT_LT(sched.makespan(), 1.5);  // sequential would be ~2.02
  EXPECT_FALSE(sched.comms().empty());
  // f and g on different processors.
  EXPECT_NE(sched.of_op(f).proc, sched.of_op(g).proc);
}

TEST(Adequation, PlacementConstraintRespected) {
  AlgorithmGraph alg = chain3();
  alg.op(alg.find("sense")).bound_processor = "P1";
  alg.op(alg.find("act")).bound_processor = "P0";
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  const Schedule sched = adequate(alg, arch);
  sched.validate(alg, arch);
  EXPECT_EQ(arch.processor(sched.of_op(alg.find("sense")).proc).name, "P1");
  EXPECT_EQ(arch.processor(sched.of_op(alg.find("act")).proc).name, "P0");
  EXPECT_FALSE(sched.comms().empty());  // data must cross the bus
}

TEST(Adequation, UnsatisfiablePlacementThrows) {
  AlgorithmGraph alg = chain3();
  alg.op(0).bound_processor = "P9";
  const auto arch = ArchitectureGraph::bus_architecture(2, 1e5);
  EXPECT_THROW(adequate(alg, arch), std::runtime_error);
}

TEST(Adequation, HeterogeneousTypeCompatibility) {
  AlgorithmGraph alg("hetero", 1.0);
  Operation op;
  op.name = "dsp_only";
  op.kind = OpKind::kCompute;
  op.wcet["dsp"] = 0.1;
  alg.add_operation(std::move(op));
  ArchitectureGraph arch;
  arch.add_processor("P0", "cpu");
  const ProcId dsp = arch.add_processor("D0", "dsp");
  const MediumId bus = arch.add_medium("bus", 100.0);
  arch.attach(0, bus);
  arch.attach(dsp, bus);
  const Schedule sched = adequate(alg, arch);
  EXPECT_EQ(sched.of_op(0).proc, dsp);
}

TEST(Adequation, NoCompatibleProcessorThrows) {
  AlgorithmGraph alg("x", 1.0);
  Operation op;
  op.name = "fpga_only";
  op.wcet["fpga"] = 0.1;
  alg.add_operation(std::move(op));
  const auto arch = ArchitectureGraph::bus_architecture(2, 1.0);
  EXPECT_THROW(adequate(alg, arch), std::runtime_error);
}

TEST(Adequation, CommAwareBeatsCommBlindOnCommHeavyGraph) {
  // Wide fan-out of small ops with large data: the comm-blind metric
  // scatters them; comm-aware keeps them near the source.
  AlgorithmGraph alg("fanout", 10.0);
  const OpId src = alg.add_simple("src", OpKind::kSensor, 0.01);
  for (int i = 0; i < 8; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    const OpId f = alg.add_simple(name, OpKind::kCompute, 0.02);
    alg.add_dependency(src, f, 50.0);
  }
  const auto arch = ArchitectureGraph::bus_architecture(4, 100.0, 0.005);
  const Schedule aware = adequate(alg, arch, {.comm_aware = true});
  const Schedule blind = adequate(alg, arch, {.comm_aware = false});
  aware.validate(alg, arch);
  blind.validate(alg, arch);
  EXPECT_LE(aware.makespan(), blind.makespan() + 1e-12);
}

TEST(Adequation, MakespanNeverIncreasesWithIdenticalExtraProcessor) {
  // Adding processors cannot hurt on a comm-free architecture.
  AlgorithmGraph alg("wide", 10.0);
  const OpId src = alg.add_simple("src", OpKind::kSensor, 0.001);
  for (int i = 0; i < 6; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    const OpId f = alg.add_simple(name, OpKind::kCompute, 0.1);
    alg.add_dependency(src, f, 1.0);
  }
  const auto arch1 = ArchitectureGraph::bus_architecture(1, 1e9);
  const auto arch3 = ArchitectureGraph::bus_architecture(3, 1e9, 0.0);
  const double m1 = adequate(alg, arch1).makespan();
  const double m3 = adequate(alg, arch3).makespan();
  EXPECT_LT(m3, m1);
}

}  // namespace
}  // namespace ecsim::aaa
