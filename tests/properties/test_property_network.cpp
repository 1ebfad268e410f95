// Property tests for the arbitrated network media (DESIGN/docs/networks.md):
// every medium, CAN included, runs its communicator sequence in the
// schedule's static order, so on random multi-processor DAGs the WCET
// executive-VM run and the WCET graph of delays both reproduce the schedule
// on the immediate, owner-slot TDMA and CAN buses, and a run below WCET
// never ends an operation later than the WCET run. Under owner-slot TDMA
// every transfer must start exactly on its owner's instant. Randomized over
// graph sizes, message counts, sizes, priorities and execution-time draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "blocks/discrete.hpp"
#include "exec/conformance.hpp"
#include "exec/executive_vm.hpp"
#include "random_graphs.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

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

/// One bus of the conformance properties: its name and the architecture.
struct Bus {
  std::string name;
  ArchitectureGraph arch;
};

/// Four processors on one 1e5/1e-5 bus — immediate, owner-slot TDMA, and
/// CAN with blocking {0, 5e-4} x background load {0, 0.3} — plus a chain
/// P0 -a- P1 -b- P2,P3 -c- P4 whose routes cross CAN on b and c, so frames
/// forward over up to three hops. The TDMA slot is a power of two so the
/// slot grid stays exact across periods.
std::vector<Bus> conformance_buses() {
  std::vector<Bus> buses;
  buses.push_back(
      {"immediate", ArchitectureGraph::bus_architecture(4, 1e5, 1e-5)});
  buses.push_back({"tdma", ArchitectureGraph::bus_architecture(4, 1e5, 1e-5)});
  buses.back().arch.set_tdma(0, 1.0 / 4096.0, 4);
  for (const double blocking : {0.0, 5e-4}) {
    for (const double load : {0.0, 0.3}) {
      auto arch = ArchitectureGraph::bus_architecture(4, 1e5, 1e-5);
      arch.set_can(0, blocking);
      arch.set_background_load(0, load);
      std::string name = "can blocking ";
      name += std::to_string(blocking) + " load " + std::to_string(load);
      buses.push_back({std::move(name), std::move(arch)});
    }
  }
  ArchitectureGraph chain("chain");
  for (char p = '0'; p < '5'; ++p) chain.add_processor(std::string{'P', p});
  const aaa::MediumId a = chain.add_medium("a", 1e5, 1e-5);
  const aaa::MediumId b = chain.add_medium("b", 5e4, 2e-5);
  const aaa::MediumId c = chain.add_medium("c", 2e5, 1e-5);
  chain.set_can(b, 5e-4);
  chain.set_background_load(b, 0.3);
  chain.set_can(c, 1e-4);
  for (const auto& [p, m] : {std::pair{0, a}, {1, a}, {1, b}, {2, b}, {3, b},
                             {3, c}, {4, c}}) {
    chain.attach(static_cast<aaa::ProcId>(p), m);
  }
  buses.push_back({"can multi-hop", std::move(chain)});
  return buses;
}

/// Random DAGs of 8-400 ops with a period far above their makespans.
constexpr double kPeriod = 12.0;
constexpr std::size_t kIterations = 3;

template <typename Check>
void for_each_scenario(Check check) {
  for (const Bus& bus : conformance_buses()) {
    for (const std::size_t n : {8u, 16u, 32u, 64u, 150u, 400u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        math::Rng rng(1000 * seed + n);
        const AlgorithmGraph alg = testing::random_dag(rng, n, kPeriod);
        const Schedule sched = adequate(alg, bus.arch);
        ASSERT_LT(sched.makespan(), kPeriod / 2);
        SCOPED_TRACE(bus.name + ", " + std::to_string(n) + " ops, seed " +
                     std::to_string(seed));
        check(alg, bus.arch, sched);
      }
    }
  }
}

exec::VmResult run_wcet(const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched,
                        const aaa::GeneratedCode& code) {
  exec::VmOptions opts;
  opts.iterations = kIterations;
  opts.period = kPeriod;
  return exec::run_executives(alg, arch, sched, code, opts);
}

TEST(CommunicatorOrderProperty, WcetRunEqualsScheduleOnEveryBus) {
  std::size_t max_hop = 0;
  for_each_scenario([&](const AlgorithmGraph& alg,
                        const ArchitectureGraph& arch, const Schedule& sched) {
    for (const aaa::ScheduledComm& sc : sched.comms()) {
      max_hop = std::max(max_hop, sc.hop_index);
    }
    const aaa::GeneratedCode code = generate_executives(alg, arch, sched);
    const exec::VmResult vm = run_wcet(alg, arch, sched, code);
    const exec::ConformanceReport rep =
        exec::check_wcet_conformance(alg, arch, sched, vm, kPeriod);
    EXPECT_TRUE(rep.ok) << rep.violations;
    EXPECT_EQ(rep.checked_instances, alg.num_operations() * kIterations);
    EXPECT_EQ(rep.checked_comm_instances, sched.comms().size() * kIterations);
  });
  EXPECT_EQ(max_hop, 2u) << "the chain's three-hop routes went unexercised";
}

TEST(CommunicatorOrderProperty, BelowWcetRunNeverEndsLater) {
  for_each_scenario([](const AlgorithmGraph& alg,
                       const ArchitectureGraph& arch, const Schedule& sched) {
    const aaa::GeneratedCode code = generate_executives(alg, arch, sched);
    const exec::VmResult wcet = run_wcet(alg, arch, sched, code);
    std::vector<double> wcet_end(alg.num_operations() * kIterations, -1.0);
    for (const exec::OpInstance& oi : wcet.ops) {
      wcet_end[oi.op * kIterations + oi.iteration] = oi.end;
    }
    exec::VmOptions opts;
    opts.iterations = kIterations;
    opts.period = kPeriod;
    opts.seed = alg.num_operations();
    opts.exec_time = exec::uniform_fraction_exec_time(0.2);
    const exec::VmResult fast =
        exec::run_executives(alg, arch, sched, code, opts);
    ASSERT_FALSE(fast.deadlock) << fast.deadlock_info;
    ASSERT_EQ(fast.ops.size(), wcet_end.size());
    for (const exec::OpInstance& oi : fast.ops) {
      EXPECT_LE(oi.end, wcet_end[oi.op * kIterations + oi.iteration] + 1e-12)
          << alg.op(oi.op).name << " iteration " << oi.iteration;
    }
  });
}

TEST(CommunicatorOrderProperty, GraphOfDelaysEqualsScheduleUnderWcet) {
  for_each_scenario([](const AlgorithmGraph& alg,
                       const ArchitectureGraph& arch, const Schedule& sched) {
    sim::Model m;
    const translate::GraphOfDelays god =
        translate::build_graph_of_delays(m, alg, arch, sched, {});
    std::map<std::string, OpId, std::less<>> counter_op;
    for (OpId op = 0; op < alg.num_operations(); ++op) {
      const std::string name = "done/" + alg.op(op).name;
      translate::wire_completion(m, god, op,
                                 m.add<blocks::EventCounter>(name), 0);
      counter_op.emplace(name, op);
    }
    sim::Simulator s(
        m, sim::SimOptions{.end_time = kIterations * kPeriod - kPeriod / 2});
    s.run();
    std::vector<std::vector<double>> done(alg.num_operations());
    for (const sim::EventRecord& e : s.trace().events()) {
      const auto it = counter_op.find(s.trace().block_name(e.block));
      if (it != counter_op.end()) done[it->second].push_back(e.time);
    }
    for (OpId op = 0; op < alg.num_operations(); ++op) {
      ASSERT_EQ(done[op].size(), kIterations) << alg.op(op).name;
      for (std::size_t k = 0; k < kIterations; ++k) {
        EXPECT_NEAR(done[op][k],
                    sched.of_op(op).end + static_cast<double>(k) * kPeriod,
                    1e-12)
            << alg.op(op).name << " iteration " << k;
      }
    }
  });
}

/// The same message set on an immediate bus vs a CAN bus with zero
/// background blocking: CAN runs the same static medium order and charges
/// nothing beyond the transfer times, so its busy period can never end
/// LATER than the immediate bus's.
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
        << "CAN must not add idle time (seed " << seed << ")";
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
