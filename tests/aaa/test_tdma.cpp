// TDMA bus arbitration: the same slot-grid rule must be honoured by the
// Medium model, the adequation, the executive VM and the graph of delays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "blocks/discrete.hpp"
#include "exec/conformance.hpp"
#include "mathlib/rng.hpp"
#include "sim/simulator.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim::aaa {
namespace {

TEST(Tdma, EarliestStartSnapsToGrid) {
  Medium m{"bus", 1e4, 0.0, Arbitration::kTdma, 0.001};
  EXPECT_DOUBLE_EQ(m.earliest_start(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.earliest_start(0.0004), 0.001);
  EXPECT_DOUBLE_EQ(m.earliest_start(0.001), 0.001);  // boundary hit passes
  EXPECT_DOUBLE_EQ(m.earliest_start(0.00101), 0.002);
  Medium imm{"bus", 1e4, 0.0};
  EXPECT_DOUBLE_EQ(imm.earliest_start(0.00037), 0.00037);
}

// The incremental adequation relies on both facts (DESIGN.md §3.10): a
// later request never snaps earlier, and a grid instant snaps to itself.
TEST(Tdma, EarliestStartIsMonotoneAndIdempotent) {
  math::Rng rng(17);
  for (const double slot : {0.0009765625, 0.001, 3.7e-4}) {
    for (std::size_t slots = 1; slots <= 6; ++slots) {
      Medium m{"bus", 1e4, 0.0, Arbitration::kTdma, slot, slots};
      for (std::size_t prio = 0; prio < slots; ++prio) {
        std::vector<double> xs(2000);
        for (double& x : xs) x = rng.uniform(0.0, 500.0);
        xs.push_back(0.0);
        std::sort(xs.begin(), xs.end());
        double prev = 0.0;
        for (const double x : xs) {
          const double t = m.earliest_start(x, prio);
          ASSERT_GE(t, prev) << "slot " << slot << " x " << x;
          ASSERT_EQ(m.earliest_start(t, prio), t) << "slot " << slot << " x " << x;
          prev = t;
        }
      }
    }
  }
}

TEST(Tdma, SetTdmaValidation) {
  auto arch = ArchitectureGraph::bus_architecture(2, 1e4);
  EXPECT_THROW(arch.set_tdma(5, 0.001), std::out_of_range);
  EXPECT_THROW(arch.set_tdma(0, 0.0), std::invalid_argument);
  arch.set_tdma(0, 0.001);
  EXPECT_EQ(arch.medium(0).arbitration, Arbitration::kTdma);
}

struct TdmaChain {
  AlgorithmGraph alg{"chain", 0.021};  // period = 14 TDMA slots
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(2, 1e5, 1e-5)};
  OpId s, c, a;

  TdmaChain() {
    arch.set_tdma(0, 0.0015);
    s = alg.add_simple("sense", OpKind::kSensor, 1e-4, "P0");
    c = alg.add_simple("ctrl", OpKind::kCompute, 5e-4, "P1");
    a = alg.add_simple("act", OpKind::kActuator, 1e-4, "P0");
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
  }
};

TEST(Tdma, ScheduleAlignsTransfersToSlots) {
  TdmaChain f;
  const Schedule sched = adequate(f.alg, f.arch);
  sched.validate(f.alg, f.arch);
  ASSERT_EQ(sched.comms().size(), 2u);
  for (const ScheduledComm& sc : sched.comms()) {
    const double slots = sc.start / 0.0015;
    EXPECT_NEAR(slots, std::round(slots), 1e-9)
        << "transfer must start on a slot boundary, got " << sc.start;
  }
  // TDMA waiting lengthens the makespan vs the immediate bus.
  auto imm_arch = ArchitectureGraph::bus_architecture(2, 1e5, 1e-5);
  AlgorithmGraph alg2 = f.alg;
  const Schedule imm = adequate(alg2, imm_arch);
  EXPECT_GT(sched.makespan(), imm.makespan());
}

TEST(Tdma, VmMatchesScheduleUnderWcet) {
  TdmaChain f;
  const Schedule sched = adequate(f.alg, f.arch);
  const GeneratedCode code = generate_executives(f.alg, f.arch, sched);
  exec::VmOptions opts;
  opts.iterations = 5;
  opts.period = f.alg.period();
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, sched, code, opts);
  const exec::ConformanceReport rep =
      exec::check_wcet_conformance(f.alg, f.arch, sched, vm, opts.period);
  EXPECT_TRUE(rep.ok) << rep.violations;
}

TEST(Tdma, GraphOfDelaysMatchesScheduleUnderWcet) {
  TdmaChain f;
  const Schedule sched = adequate(f.alg, f.arch);
  sim::Model m;
  auto& n = m.add<blocks::EventCounter>("done");
  const translate::GraphOfDelays god =
      translate::build_graph_of_delays(m, f.alg, f.arch, sched, {});
  translate::wire_completion(m, god, f.a, n, 0);
  sim::Simulator s(m, sim::SimOptions{.end_time = 0.0839});
  s.run();
  const auto times = s.trace().activation_times_by_name("done");
  ASSERT_EQ(times.size(), 4u);
  const double expect = sched.of_op(f.a).end;
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(times[k], expect + 0.021 * static_cast<double>(k), 1e-9);
  }
}

TEST(Tdma, EarlierCompletionStillSlotAligned) {
  // With execution times below WCET, transfers still only start on slots,
  // so completions quantize.
  TdmaChain f;
  const Schedule sched = adequate(f.alg, f.arch);
  const GeneratedCode code = generate_executives(f.alg, f.arch, sched);
  exec::VmOptions opts;
  opts.iterations = 50;
  opts.period = f.alg.period();
  opts.bcet_fraction = 0.2;
  opts.seed = 99;
  const exec::VmResult vm =
      exec::run_executives(f.alg, f.arch, sched, code, opts);
  ASSERT_FALSE(vm.deadlock);
  for (const exec::CommInstance& ci : vm.comms) {
    const double local = std::fmod(ci.start, 0.0015);
    EXPECT_TRUE(local < 1e-9 || local > 0.0015 - 1e-9)
        << "transfer started off-grid at " << ci.start;
  }
}

}  // namespace
}  // namespace ecsim::aaa
