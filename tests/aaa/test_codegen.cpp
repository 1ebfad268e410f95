#include "aaa/codegen.hpp"

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "mathlib/rng.hpp"
#include "properties/random_graphs.hpp"

namespace ecsim::aaa {
namespace {

struct DistributedChain {
  AlgorithmGraph alg{"chain", 0.01};
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  Schedule sched{0, 0};

  DistributedChain() {
    const OpId s = alg.add_simple("sense", OpKind::kSensor, 1e-4, "P0");
    const OpId c = alg.add_simple("ctrl", OpKind::kCompute, 5e-4, "P1");
    const OpId a = alg.add_simple("act", OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = adequate(alg, arch);
    sched.validate(alg, arch);
  }
};

TEST(Codegen, OnePerProcessorAndMedium) {
  DistributedChain f;
  const GeneratedCode code = generate_executives(f.alg, f.arch, f.sched);
  EXPECT_EQ(code.programs.size(), 2u);
  EXPECT_EQ(code.communicators.size(), 1u);
  EXPECT_EQ(code.communicators[0].comms.size(), 2u);  // y and u transfers
}

TEST(Codegen, SendRecvPairingPerTransfer) {
  DistributedChain f;
  const GeneratedCode code = generate_executives(f.alg, f.arch, f.sched);
  std::size_t sends = 0, recvs = 0, computes = 0;
  for (const ExecutiveProgram& prog : code.programs) {
    for (const Instr& ins : prog.instrs) {
      switch (ins.kind) {
        case InstrKind::kSend: ++sends; break;
        case InstrKind::kRecv: ++recvs; break;
        case InstrKind::kCompute: ++computes; break;
      }
    }
  }
  EXPECT_EQ(sends, f.sched.comms().size());
  EXPECT_EQ(recvs, f.sched.comms().size());
  EXPECT_EQ(computes, f.alg.num_operations());
}

TEST(Codegen, ProgramOrderMatchesScheduleOrder) {
  DistributedChain f;
  const GeneratedCode code = generate_executives(f.alg, f.arch, f.sched);
  // On P0: sense(compute), send y, recv u, act(compute).
  const ExecutiveProgram& p0 =
      code.programs[f.arch.find_processor("P0")];
  ASSERT_EQ(p0.instrs.size(), 4u);
  EXPECT_EQ(p0.instrs[0].kind, InstrKind::kCompute);
  EXPECT_EQ(p0.instrs[1].kind, InstrKind::kSend);
  EXPECT_EQ(p0.instrs[2].kind, InstrKind::kRecv);
  EXPECT_EQ(p0.instrs[3].kind, InstrKind::kCompute);
  // On P1: recv y, ctrl, send u.
  const ExecutiveProgram& p1 =
      code.programs[f.arch.find_processor("P1")];
  ASSERT_EQ(p1.instrs.size(), 3u);
  EXPECT_EQ(p1.instrs[0].kind, InstrKind::kRecv);
  EXPECT_EQ(p1.instrs[1].kind, InstrKind::kCompute);
  EXPECT_EQ(p1.instrs[2].kind, InstrKind::kSend);
}

TEST(Codegen, RecvsPrecedeTheirConsumerAndSendsFollowTheirProducer) {
  // Random graphs on three processors: every recv is followed (after other
  // recvs only) by the compute of its consumer, and every send is preceded
  // (after other sends only) by the compute of its producer.
  math::Rng rng(41);
  const AlgorithmGraph alg = testing::random_dag(rng, 60);
  const ArchitectureGraph arch =
      ArchitectureGraph::bus_architecture(3, 1e4, 1e-5);
  const Schedule sched = adequate(alg, arch);
  const GeneratedCode code = generate_executives(alg, arch, sched);
  std::size_t checked = 0;
  for (const ExecutiveProgram& prog : code.programs) {
    const std::vector<Instr>& in = prog.instrs;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i].kind == InstrKind::kCompute) continue;
      const DataDep& dep = alg.dependencies()[sched.comms()[in[i].comm].dep_index];
      std::size_t j = i;
      if (in[i].kind == InstrKind::kRecv) {
        while (j < in.size() && in[j].kind == InstrKind::kRecv) ++j;
        ASSERT_LT(j, in.size());
        EXPECT_EQ(in[j].op, dep.to) << in[i].label;
      } else {
        while (j > 0 && in[j].kind == InstrKind::kSend) --j;
        ASSERT_EQ(in[j].kind, InstrKind::kCompute) << in[i].label;
        EXPECT_EQ(in[j].op, dep.from) << in[i].label;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(Codegen, SourceRendersSequencersAndSemaphores) {
  DistributedChain f;
  const GeneratedCode code = generate_executives(f.alg, f.arch, f.sched);
  EXPECT_NE(code.source.find("void main_P0"), std::string::npos);
  EXPECT_NE(code.source.find("void main_P1"), std::string::npos);
  EXPECT_NE(code.source.find("communicator_bus"), std::string::npos);
  EXPECT_NE(code.source.find("sem_wait"), std::string::npos);
  EXPECT_NE(code.source.find("sem_signal"), std::string::npos);
  EXPECT_NE(code.source.find("wait_period()"), std::string::npos);
  EXPECT_NE(code.source.find("ctrl();"), std::string::npos);
}

TEST(Codegen, ConditionalOpRendersSwitch) {
  AlgorithmGraph alg("cond", 0.01);
  Operation op;
  op.name = "mode";
  op.kind = OpKind::kCompute;
  op.branches = {Branch{"fast", {{"cpu", 1e-4}}},
                 Branch{"slow", {{"cpu", 3e-4}}}};
  alg.add_operation(std::move(op));
  const auto arch = ArchitectureGraph::bus_architecture(1, 1.0);
  const Schedule sched = adequate(alg, arch);
  const GeneratedCode code = generate_executives(alg, arch, sched);
  EXPECT_NE(code.source.find("switch (cond)"), std::string::npos);
  EXPECT_NE(code.source.find("case 0: fast()"), std::string::npos);
  EXPECT_NE(code.source.find("case 1: slow()"), std::string::npos);
}

}  // namespace
}  // namespace ecsim::aaa
