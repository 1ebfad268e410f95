// Property tests for the arbitrated network media (DESIGN/docs/networks.md):
// under CAN priority arbitration the executive VM's bus timeline must be
// work-conserving and priority-faithful for ANY message set and ANY actual
// execution times; under owner-slot TDMA every transfer must start exactly
// on its owner's instant. Randomized over message counts, sizes, priorities
// and execution-time draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "exec/conformance.hpp"
#include "exec/executive_vm.hpp"

namespace ecsim {
namespace {

using aaa::AlgorithmGraph;
using aaa::ArchitectureGraph;
using aaa::OpId;
using aaa::Schedule;

/// N independent sender ops on P0, each streaming one prioritized frame to
/// its receiver on P1 across a single CAN bus.
struct CanFixture {
  AlgorithmGraph alg{"can_prop", 0.05};
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(2, 1e5, 0.0)};
  std::vector<OpId> senders, receivers;

  CanFixture(std::size_t n, std::uint64_t seed) {
    arch.set_can(0, 0.0);  // no background blocking: pure modeled contention
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> wcet(1e-4, 2e-3);
    std::uniform_real_distribution<double> size(4.0, 40.0);
    std::vector<std::size_t> prio(n);
    for (std::size_t i = 0; i < n; ++i) prio[i] = i;
    std::shuffle(prio.begin(), prio.end(), rng);
    for (std::size_t i = 0; i < n; ++i) {
      std::string sender = "s";
      sender += std::to_string(i);
      std::string receiver = "r";
      receiver += std::to_string(i);
      senders.push_back(
          alg.add_simple(sender, aaa::OpKind::kSensor, wcet(rng), "P0"));
      receivers.push_back(
          alg.add_simple(receiver, aaa::OpKind::kActuator, 1e-4, "P1"));
      alg.add_dependency(senders[i], receivers[i], size(rng), prio[i]);
    }
  }
};

/// Runs the VM with below-WCET execution times and checks, frame by frame
/// along the bus timeline:
///   work conservation — every transfer starts at max(bus free, frame
///   ready); the bus never idles while a known frame is pending;
///   priority faithfulness — within an iteration, if a frame was already
///   ready when a later-transmitted frame started, the transmitted frame
///   carried the smaller CAN identifier (higher priority).
TEST(CanArbitrationProperty, WorkConservingAndPriorityFaithful) {
  constexpr double kEps = 1e-9;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    CanFixture f(6, seed);
    const Schedule sched = adequate(f.alg, f.arch);
    sched.validate(f.alg, f.arch);
    const aaa::GeneratedCode code = generate_executives(f.alg, f.arch, sched);
    exec::VmOptions opts;
    opts.iterations = 8;
    opts.period = f.alg.period();
    opts.seed = seed * 7 + 1;
    opts.exec_time = exec::uniform_fraction_exec_time(0.3);
    const exec::VmResult vm =
        exec::run_executives(f.alg, f.arch, sched, code, opts);
    ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
    ASSERT_EQ(vm.comms.size(), 6u * 8u);

    // Frame ready instant = its sender's completion in that iteration (the
    // kSend executes at the op's end, advancing no time).
    const auto ready_of = [&](const exec::CommInstance& ci) {
      const OpId sender =
          f.alg.dependencies()[sched.comms()[ci.comm].dep_index].from;
      for (const exec::OpInstance& oi : vm.ops) {
        if (oi.op == sender && oi.iteration == ci.iteration) return oi.end;
      }
      ADD_FAILURE() << "no sender instance for comm " << ci.comm;
      return 0.0;
    };
    const auto prio_of = [&](const exec::CommInstance& ci) {
      return f.alg.dep_priority(sched.comms()[ci.comm].dep_index);
    };

    // vm.comms is in bus commit order for the single medium.
    double bus_free = 0.0;
    for (const exec::CommInstance& ci : vm.comms) {
      EXPECT_NEAR(ci.start, std::max(bus_free, ready_of(ci)), kEps)
          << "bus idled (or time-travelled) before comm " << ci.comm
          << " iter " << ci.iteration << " (seed " << seed << ")";
      EXPECT_GE(ci.start, bus_free - kEps) << "overlapping transfers";
      bus_free = ci.end;
    }
    for (std::size_t i = 0; i < vm.comms.size(); ++i) {
      for (std::size_t j = i + 1; j < vm.comms.size(); ++j) {
        const exec::CommInstance& won = vm.comms[i];
        const exec::CommInstance& lost = vm.comms[j];
        if (won.iteration != lost.iteration) continue;
        if (ready_of(lost) < won.start - kEps) {
          EXPECT_LT(prio_of(won), prio_of(lost))
              << "frame " << lost.comm << " was ready before frame "
              << won.comm << " started yet had higher priority (seed "
              << seed << ")";
        }
      }
    }
  }
}

/// The same message set on an immediate bus vs a CAN bus with zero
/// background blocking: CAN's dynamic arbitration is work conserving, so
/// its busy period can never end LATER than the static-order replay of the
/// immediate bus (which may leave gaps a pending frame did not fit into),
/// even though arbitration may reorder the frames in between.
TEST(CanArbitrationProperty, BusyPeriodNoWorseThanImmediateBusUnderWcet) {
  for (const std::uint64_t seed : {3u, 9u}) {
    CanFixture f(5, seed);
    const auto last_end = [](const AlgorithmGraph& alg,
                             const ArchitectureGraph& arch) {
      const Schedule sched = adequate(alg, arch);
      const aaa::GeneratedCode code = generate_executives(alg, arch, sched);
      exec::VmOptions opts;
      opts.iterations = 1;
      const exec::VmResult vm =
          exec::run_executives(alg, arch, sched, code, opts);
      EXPECT_FALSE(vm.deadlock);
      double end = 0.0;
      for (const exec::CommInstance& ci : vm.comms) {
        end = std::max(end, ci.end);
      }
      return end;
    };
    ArchitectureGraph immediate =
        ArchitectureGraph::bus_architecture(2, 1e5, 0.0);
    EXPECT_LE(last_end(f.alg, f.arch), last_end(f.alg, immediate) + 1e-9)
        << "CAN arbitration must not add idle time (seed " << seed << ")";
  }
}

/// Owner-slot TDMA chain: sense on P0 -> ctrl on P1 -> act on P0, frame
/// priorities 0 and 1 on a 2-slot round.
struct TdmaFixture {
  AlgorithmGraph alg{"tdma_prop", 0.02};  // period = 10 rounds of 2 * 1e-3
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(2, 1e5, 0.0)};
  OpId s, c, a;

  TdmaFixture() {
    arch.set_tdma(0, 1e-3, 2);
    s = alg.add_simple("sense", aaa::OpKind::kSensor, 1e-3, "P0");
    c = alg.add_simple("ctrl", aaa::OpKind::kCompute, 5e-4, "P1");
    a = alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0, /*priority=*/0);
    alg.add_dependency(c, a, 8.0, /*priority=*/1);
  }
};

TEST(TdmaOwnerSlotProperty, EveryTransferStartsOnItsOwnerInstant) {
  TdmaFixture f;
  const Schedule sched = adequate(f.alg, f.arch);
  sched.validate(f.alg, f.arch);
  const aaa::GeneratedCode code = generate_executives(f.alg, f.arch, sched);
  const double round = 2 * 1e-3;
  for (const std::uint64_t seed : {5u, 17u, 29u}) {
    exec::VmOptions opts;
    opts.iterations = 40;
    opts.period = f.alg.period();
    opts.seed = seed;
    opts.exec_time = exec::uniform_fraction_exec_time(0.25);
    const exec::VmResult vm =
        exec::run_executives(f.alg, f.arch, sched, code, opts);
    ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
    for (const exec::CommInstance& ci : vm.comms) {
      const std::size_t owner =
          f.alg.dep_priority(sched.comms()[ci.comm].dep_index) % 2;
      const double local =
          std::fmod(ci.start - static_cast<double>(owner) * 1e-3, round);
      EXPECT_TRUE(local < 1e-9 || local > round - 1e-9)
          << "transfer of owner " << owner << " started off its instant at "
          << ci.start << " (seed " << seed << ")";
    }
  }
}

/// Release exactly AT the owner instant boundary: the sense op's WCET is
/// exactly one round, so under exact-WCET execution its frame (owner 0,
/// instants k * 2e-3) becomes ready precisely at 2e-3 and must start there
/// — a boundary hit, not a full extra round of waiting.
TEST(TdmaOwnerSlotProperty, ReleaseExactlyAtOwnerInstantStartsImmediately) {
  TdmaFixture f;
  f.alg.op(f.s).wcet = {{"cpu", 2e-3}};  // one full round
  const Schedule sched = adequate(f.alg, f.arch);
  const aaa::GeneratedCode code = generate_executives(f.alg, f.arch, sched);
  exec::VmOptions opts;
  opts.iterations = 3;
  opts.period = f.alg.period();
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  for (const exec::CommInstance& ci : vm.comms) {
    if (sched.comms()[ci.comm].dep_index != 0) continue;
    const double expect =
        2e-3 + f.alg.period() * static_cast<double>(ci.iteration);
    EXPECT_NEAR(ci.start, expect, 1e-12)
        << "boundary release must pass, not wait a round";
  }
  // And the static schedule agrees with the VM under WCET.
  const exec::ConformanceReport rep =
      exec::check_wcet_conformance(f.alg, f.arch, sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
}

}  // namespace
}  // namespace ecsim
