#include "exec/conformance.hpp"

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"

namespace ecsim::exec {
namespace {

struct DistributedChain {
  AlgorithmGraph alg{"chain", 0.01};
  ArchitectureGraph arch{
      aaa::ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  Schedule sched{0, 0};
  GeneratedCode code;

  DistributedChain() {
    const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
    const aaa::OpId c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
    sched = aaa::adequate(alg, arch);
    code = aaa::generate_executives(alg, arch, sched);
  }
};

TEST(Conformance, WcetExecutionMatchesScheduleExactly) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = f.alg.period();
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
  EXPECT_EQ(rep.checked_instances, 60u);
  EXPECT_LT(rep.max_time_error, 1e-9);
}

TEST(Conformance, RandomExecutionTimesStillPreserveOrder) {
  DistributedChain f;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    VmOptions opts;
    opts.iterations = 10;
    opts.period = f.alg.period();
    opts.bcet_fraction = 0.1;
    opts.seed = seed;
    const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
    const ConformanceReport rep =
        check_order_preservation(f.alg, f.arch, f.sched, vm);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.violations;
  }
}

TEST(Conformance, DeadlockReportedAsViolation) {
  DistributedChain f;
  GeneratedCode bad = f.code;
  for (auto& prog : bad.programs) {
    std::erase_if(prog.instrs, [](const aaa::Instr& ins) {
      return ins.kind == aaa::InstrKind::kSend;
    });
  }
  VmOptions opts;
  opts.iterations = 1;
  opts.period = 0.01;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, bad, opts);
  const ConformanceReport rep =
      check_order_preservation(f.alg, f.arch, f.sched, vm);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.violations.find("deadlock"), std::string::npos);
}

TEST(Conformance, FlagsTimeMismatchWhenFasterThanWcet) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 2;
  opts.period = f.alg.period();
  opts.bcet_fraction = 0.2;
  const VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_FALSE(rep.ok);  // faster than WCET => instants differ
  EXPECT_GT(rep.max_time_error, 0.0);
}

TEST(Conformance, FlagsCommInstantMismatch) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = f.alg.period();
  VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  const ConformanceReport clean =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  ASSERT_TRUE(clean.ok) << clean.violations;
  EXPECT_EQ(clean.checked_instances, 60u);
  EXPECT_EQ(clean.checked_comm_instances, 40u);
  // One transfer starts (and ends) late; every op still conforms.
  ASSERT_EQ(vm.comms.size(), 40u);
  vm.comms[13].start += 3e-6;
  vm.comms[13].end += 3e-6;
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.checked_instances, 60u);
  EXPECT_EQ(rep.checked_comm_instances, 40u);
  EXPECT_NEAR(rep.max_time_error, 3e-6, 1e-12);
  const std::string iter =
      "iter " + std::to_string(vm.comms[13].iteration) + " ";
  EXPECT_EQ(rep.violations.find("op '"), std::string::npos) << rep.violations;
  EXPECT_EQ(rep.violations.find("comm '"), 0u) << rep.violations;
  EXPECT_NE(rep.violations.find(iter), std::string::npos) << rep.violations;
}

TEST(Conformance, ViolationTextIsBoundedButCountsCoverEveryInstance) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = f.alg.period();
  VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  ASSERT_EQ(vm.ops.size(), 60u);
  // Shift every third instance late by a growing amount: 20 mismatches,
  // the worst one last.
  std::size_t shifted = 0;
  for (std::size_t i = 0; i < vm.ops.size(); i += 3) {
    ++shifted;
    vm.ops[i].start += 1e-6 * static_cast<double>(shifted);
    vm.ops[i].end += 1e-6 * static_cast<double>(shifted);
  }
  ASSERT_EQ(shifted, 20u);
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.checked_instances, 60u);
  EXPECT_NEAR(rep.max_time_error, 20e-6, 1e-12);
  std::size_t listed = 0;
  for (std::size_t pos = rep.violations.find("op '");
       pos != std::string::npos; pos = rep.violations.find("op '", pos + 1)) {
    ++listed;
  }
  EXPECT_EQ(listed, kMaxListedViolations);
  const std::string tail = "… and 12 more";
  ASSERT_GE(rep.violations.size(), tail.size());
  EXPECT_EQ(rep.violations.substr(rep.violations.size() - tail.size()), tail)
      << rep.violations;
}

TEST(Conformance, ViolationTextListsEverythingUpToTheCap) {
  DistributedChain f;
  VmOptions opts;
  opts.iterations = 20;
  opts.period = f.alg.period();
  VmResult vm = run_executives(f.alg, f.arch, f.sched, f.code, opts);
  for (std::size_t i = 0; i < kMaxListedViolations; ++i) {
    vm.ops[i].end += 1e-6;
  }
  const ConformanceReport rep =
      check_wcet_conformance(f.alg, f.arch, f.sched, vm, opts.period);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.violations.find("more"), std::string::npos) << rep.violations;
  EXPECT_NE(rep.violations.find("iter"), std::string::npos);
}

// BranchChoice::kWorstCase runs the branch the schedule reserves on the
// op's host processor. Here the branch WCET order differs between the CPU
// and a DSP (b0 is worst on the DSP, b1 on the CPU), and the op is bound to
// the CPU: the WCET run must take b1 and conform exactly.
TEST(Conformance, WorstCaseBranchIsTheHostProcessorsWorstBranch) {
  AlgorithmGraph alg("cond", 0.01);
  const aaa::OpId s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-4, "P0");
  aaa::Operation ctrl;
  ctrl.name = "ctrl";
  ctrl.kind = aaa::OpKind::kCompute;
  ctrl.bound_processor = "P0";
  aaa::Branch b0;
  b0.name = "b0";
  b0.wcet = {{"cpu", 1e-3}, {"dsp", 5e-3}};
  aaa::Branch b1;
  b1.name = "b1";
  b1.wcet = {{"cpu", 3e-3}, {"dsp", 1e-3}};
  ctrl.branches = {b0, b1};
  const aaa::OpId c = alg.add_operation(std::move(ctrl));
  const aaa::OpId a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
  alg.add_dependency(s, c, 1.0);
  alg.add_dependency(c, a, 1.0);
  ArchitectureGraph arch = aaa::ArchitectureGraph::bus_architecture(1, 1e5);
  arch.add_processor("D0", "dsp");
  const Schedule sched = aaa::adequate(alg, arch);
  const GeneratedCode code = aaa::generate_executives(alg, arch, sched);

  VmOptions opts;
  opts.iterations = 3;
  opts.period = alg.period();
  opts.branch = BranchChoice::kWorstCase;
  const VmResult vm = run_executives(alg, arch, sched, code, opts);
  for (const OpInstance& oi : vm.ops) {
    if (oi.op == c) {
      EXPECT_EQ(oi.branch, 1u);
    }
  }
  const ConformanceReport rep =
      check_wcet_conformance(alg, arch, sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
  EXPECT_LT(rep.max_time_error, 1e-9);
}

}  // namespace
}  // namespace ecsim::exec
