#include "blocks/event_blocks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "blocks/discrete.hpp"
#include "blocks/sources.hpp"
#include "blocks/to_model.hpp"
#include "mathlib/rng.hpp"
#include "sim/simulator.hpp"

namespace ecsim::blocks {
namespace {

using sim::Model;
using sim::SimOptions;
using sim::Simulator;

TEST(DurationSpecs, Validation) {
  EXPECT_THROW(constant_duration(-1.0), std::invalid_argument);
  EXPECT_THROW(shifted_uniform_duration(1.0, -0.1, 0), std::invalid_argument);
  EXPECT_THROW(keyed_duration({}, 0.5, aaa::BranchChoice::kFirst, 0),
               std::invalid_argument);
  EXPECT_THROW(keyed_duration({-1.0}, 0.5, aaa::BranchChoice::kFirst, 0),
               std::invalid_argument);
  EXPECT_THROW(keyed_duration({1.0}, 1.5, aaa::BranchChoice::kFirst, 0),
               std::invalid_argument);
}

TEST(DurationSpecs, UniformWithinBounds) {
  // Shifted uniform: base +- jitter/2, clamped at zero, activation k drawn
  // from the stream keyed by (seed, key, k).
  const auto spec = shifted_uniform_duration(1.0, 1.0, 7);
  const auto clamped = shifted_uniform_duration(0.1, 1.0, 7);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double d = sample_duration(spec, 1, k);
    EXPECT_GE(d, 0.5);
    EXPECT_LE(d, 1.5);
    const double u = math::keyed_rng(1, 7, k).uniform(-0.5, 0.5);
    EXPECT_EQ(d, 1.0 + u);
    EXPECT_EQ(sample_duration(clamped, 1, k), std::max(0.0, 0.1 + u));
  }
}

TEST(DurationSpecs, ParamsRoundTripEveryKind) {
  const DurationSpec specs[] = {
      constant_duration(0.5),
      shifted_uniform_duration(1.0, 0.2, aaa::block_key(3)),
      keyed_duration({1e-3, 4e-3}, 0.4, aaa::BranchChoice::kUniform,
                     aaa::can_wait_key(7))};
  std::vector<double> table;
  for (const DurationSpec& s : specs) {
    const std::vector<double> p = duration_params(s);
    table.insert(table.end(), p.begin(), p.end());
  }
  std::size_t pos = 0;
  for (const DurationSpec& s : specs) {
    const DurationSpec r = duration_from_params(table, pos);
    EXPECT_EQ(r.kind, s.kind);
    EXPECT_EQ(r.value, s.value);
    EXPECT_EQ(r.base, s.base);
    EXPECT_EQ(r.jitter, s.jitter);
    EXPECT_EQ(r.branch_wcets, s.branch_wcets);
    EXPECT_EQ(r.bcet_fraction, s.bcet_fraction);
    EXPECT_EQ(r.branch, s.branch);
    EXPECT_EQ(r.key, s.key);
  }
  EXPECT_EQ(pos, table.size());
  // A truncated table, an unknown tag, a deleted kind's tag (1) and an
  // oversized vector all throw.
  const std::vector<double> keyed = duration_params(specs[2]);
  std::size_t at = 0;
  EXPECT_THROW(duration_from_params(
                   std::span(keyed).first(keyed.size() - 1), at),
               std::invalid_argument);
  at = 0;
  EXPECT_THROW(duration_from_params(std::vector<double>{2.0, 1.0}, at),
               std::invalid_argument);
  at = 0;
  EXPECT_THROW(duration_from_params(std::vector<double>{1.0, 0.25, 1.5}, at),
               std::invalid_argument);
  at = 0;
  EXPECT_THROW(duration_from_params(std::vector<double>{5.0, 9.0, 1.0}, at),
               std::invalid_argument);
}

TEST(DurationSpecs, KeyedSpecRoundTripsThroughTheIr) {
  const EventDelay d("d", keyed_duration({2e-4, 7e-4}, 0.3,
                                         aaa::BranchChoice::kWorstCase,
                                         aaa::bound_branch_key(12, 1)));
  ir::BlockIr b;
  b.name = d.name();
  d.describe(b);
  const DurationSpec r = duration_from_attrs(b);
  EXPECT_EQ(r.kind, DurationSpec::Kind::kKeyed);
  EXPECT_EQ(r.branch_wcets, d.spec().branch_wcets);
  EXPECT_EQ(r.bcet_fraction, 0.3);
  EXPECT_EQ(r.branch, aaa::BranchChoice::kWorstCase);
  EXPECT_EQ(r.key, aaa::bound_branch_key(12, 1));
  // The surviving "dist" tags are pinned: IR files keep their meaning.
  EXPECT_EQ(b.find("dist")->i, 5);

  const EventDelay j("j", shifted_uniform_duration(2e-3, 5e-4,
                                                   aaa::block_key(1)));
  ir::BlockIr jb;
  jb.name = j.name();
  j.describe(jb);
  const DurationSpec jr = duration_from_attrs(jb);
  EXPECT_EQ(jb.find("dist")->i, 3);
  EXPECT_EQ(jr.kind, DurationSpec::Kind::kShiftedUniform);
  EXPECT_EQ(jr.base, 2e-3);
  EXPECT_EQ(jr.jitter, 5e-4);
  EXPECT_EQ(jr.key, aaa::block_key(1));
  // Tag 1 belongs to a deleted kind and is never reused.
  for (ir::Attr& a : jb.attrs) {
    if (a.key == "dist") a.i = 1;
  }
  EXPECT_THROW(duration_from_attrs(jb), std::invalid_argument);
}

TEST(EventDelay, KeyedDelayDrawsTheExecutiveTimeOfEachActivation) {
  // Activation k of a kKeyed delay takes aaa::draw_exec_time keyed by (run
  // seed, key, k): the instants follow from the seed alone.
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& d = m.add<EventDelay>(
      "d", keyed_duration({0.5}, 0.2, aaa::BranchChoice::kFirst, 3));
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, d, d.event_in());
  m.connect_event(d, d.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 3.9, .seed = 17});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 4u);
  const std::vector<double> wcet{0.5};
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(times[k] - static_cast<double>(k),
                aaa::draw_exec_time(wcet, 0.2, aaa::BranchChoice::kFirst, 17,
                                    3, k)
                    .duration,
                1e-12);
  }
}

TEST(EventDelay, ConstantDelayShiftsEvents) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& d = m.add<EventDelay>("d", 0.25);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, d, d.event_in());
  m.connect_event(d, d.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 2.0});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 0.25, 1e-12);
  EXPECT_NEAR(times[1], 1.25, 1e-12);
}

TEST(EventDelay, BusyQueueingSerializesOverlappingWork) {
  // Duration 0.7 with period 0.5: the second activation must queue and the
  // output spacing equals the duration, not the input period.
  Model m;
  auto& clk = m.add<Clock>("clk", 0.5);
  auto& d = m.add<EventDelay>("d", 0.7);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, d, d.event_in());
  m.connect_event(d, d.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 3.0});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_GE(times.size(), 3u);
  EXPECT_NEAR(times[0], 0.7, 1e-12);
  EXPECT_NEAR(times[1], 1.4, 1e-12);
  EXPECT_NEAR(times[2], 2.1, 1e-12);
  EXPECT_GT(d.busy_hits(), 0u);
}

TEST(EventDelay, ZeroDurationPassesThroughSameInstant) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& d = m.add<EventDelay>("d", 0.0);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, d, d.event_in());
  m.connect_event(d, d.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 0.0});
  s.run();
  EXPECT_EQ(n.count(), 1u);
}

TEST(EventDelay, StochasticDurationsAreSeedStable) {
  auto run = [](std::uint64_t seed) {
    Model m;
    auto& clk = m.add<Clock>("clk", 1.0);
    auto& d = m.add<EventDelay>("d", shifted_uniform_duration(0.25, 0.3, 2));
    auto& n = m.add<EventCounter>("n");
    m.connect_event(clk, 0, d, d.event_in());
    m.connect_event(d, d.event_out(), n, 0);
    Simulator s(m, SimOptions{.end_time = 5.0, .seed = seed});
    s.run();
    return s.trace().activation_times_by_name("n");
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(EventSelect, RoutesByConditionValue) {
  Model m;
  auto& cond = m.add<Sine>("cond", 1.0, 0.25);  // positive first half period
  auto& clk = m.add<Clock>("clk", 1.0, 0.5);
  auto& sel = m.add_block(EventSelect::make_threshold("sel", 0.0));
  auto& n0 = m.add<EventCounter>("n0");
  auto& n1 = m.add<EventCounter>("n1");
  m.connect(cond, 0, sel, 0);
  m.connect_event(clk, 0, sel, 0);
  m.connect_event(sel, 0, n0, 0);
  m.connect_event(sel, 1, n1, 0);
  Simulator s(m, SimOptions{.end_time = 3.9});
  s.run();
  // Ticks at 0.5 (sin>0 -> ch1), 1.5 (sin<0 -> ch0), 2.5 (ch1), 3.5 (ch0).
  EXPECT_EQ(n1.count(), 2u);
  EXPECT_EQ(n0.count(), 2u);
}

TEST(EventSelect, OutOfRangeMappingThrows) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& sel = m.add<EventSelect>(
      "sel", 2, 1, [](std::span<const double>) { return std::size_t{5}; });
  m.connect_event(clk, 0, sel, 0);
  Simulator s(m, SimOptions{.end_time = 1.0});
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(EventSelect, Validation) {
  EXPECT_THROW(
      EventSelect("s", 0, 1, [](std::span<const double>) { return 0u; }),
      std::invalid_argument);
  EXPECT_THROW(EventSelect("s", 2, 1, nullptr), std::invalid_argument);
}

TEST(TdmaGate, SnapsEventsToGrid) {
  Model m;
  auto& clk = m.add<Clock>("clk", 0.7e-3);  // off-grid ticks
  auto& gate = m.add<TdmaGate>("gate", 1e-3);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, gate, gate.event_in());
  m.connect_event(gate, gate.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 3.0e-3});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_GE(times.size(), 3u);
  EXPECT_NEAR(times[0], 0.0, 1e-12);      // tick at 0 passes through
  EXPECT_NEAR(times[1], 1.0e-3, 1e-12);   // 0.7 ms -> 1 ms
  EXPECT_NEAR(times[2], 2.0e-3, 1e-12);   // 1.4 ms -> 2 ms
  EXPECT_THROW(TdmaGate("x", 0.0), std::invalid_argument);
}

TEST(EventDivider, ForwardsEveryNth) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& div = m.add<EventDivider>("div", 3);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, div, div.event_in());
  m.connect_event(div, div.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 8.0});
  s.run();
  // Ticks at 0..8 (9 ticks); forwarded: 0, 3, 6.
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[1], 3.0, 1e-12);
}

TEST(EventDivider, PhaseShiftsSelection) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& div = m.add<EventDivider>("div", 4, 2);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, div, div.event_in());
  m.connect_event(div, div.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 9.0});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 2.0, 1e-12);
  EXPECT_NEAR(times[1], 6.0, 1e-12);
  EXPECT_THROW(EventDivider("x", 0), std::invalid_argument);
  EXPECT_THROW(EventDivider("x", 2, 2), std::invalid_argument);
}

TEST(EventDivider, CounterResetsBetweenRuns) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& div = m.add<EventDivider>("div", 2, 1);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, div, div.event_in());
  m.connect_event(div, div.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 4.0});
  s.run();
  const std::size_t first = n.count();
  s.run();
  EXPECT_EQ(n.count(), first);
}

/// A gate over a 1 s period whose entries all trigger (probability 1):
/// `losses` drop the frames of the listed iterations (one windowed entry
/// each), and a `defer` delay applies to every frame.
fault::CommGate scripted_gate(std::vector<std::size_t> losses, double defer) {
  fault::CommGate g;
  g.period = 1.0;
  std::size_t fi = 0;
  for (const std::size_t k : losses) {
    const double t = static_cast<double>(k);
    g.entries.push_back({fi++, fault::CommGateEntry::Kind::kLoss, 1.0, 0.0, 0,
                         t - 0.5, t + 0.5});
  }
  if (defer != 0.0) {
    g.entries.push_back({fi, fault::CommGateEntry::Kind::kDelay, 1.0, defer,
                         0});
  }
  return g;
}

TEST(EventFault, DropsAndDefersPerDecider) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  // Drop every even activation, defer every odd one by 0.25 s.
  auto& gate = m.add<EventFault>("gate", scripted_gate({0, 2, 4}, 0.25));
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, gate, gate.event_in());
  m.connect_event(gate, gate.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 4.0});
  s.run();
  // Ticks 0..4: 0,2,4 dropped; 1,3 forwarded at 1.25 and 3.25.
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 1.25, 1e-12);
  EXPECT_NEAR(times[1], 3.25, 1e-12);
  // Activation k gets comm_gate_decide(gate, k), a pure function of k.
  EXPECT_EQ(s.trace().activation_times_by_name("gate").size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    const fault::CommGateAction a = fault::comm_gate_decide(gate.gate(), k);
    EXPECT_EQ(a.drop, k % 2 == 0) << k;
    EXPECT_EQ(a.defer, a.drop ? 0.0 : 0.25) << k;
  }
}

TEST(EventFault, PassThroughIsTransparentAndCountersReset) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& gate = m.add<EventFault>("gate", fault::CommGate{});
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, gate, gate.event_in());
  m.connect_event(gate, gate.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 3.0});
  s.run();
  EXPECT_EQ(n.count(), 4u);  // 0, 1, 2, 3 — nothing dropped or moved
  EXPECT_EQ(s.trace().activation_times_by_name("n"),
            (std::vector<double>{0.0, 1.0, 2.0, 3.0}));

  // The activation count is per-run state: a gate dropping iteration 0
  // drops the first tick of every run.
  Model m2;
  auto& clk2 = m2.add<Clock>("clk", 1.0);
  auto& gate2 = m2.add<EventFault>("gate", scripted_gate({0}, 0.0));
  auto& n2 = m2.add<EventCounter>("n");
  m2.connect_event(clk2, 0, gate2, gate2.event_in());
  m2.connect_event(gate2, gate2.event_out(), n2, 0);
  Simulator s2(m2, SimOptions{.end_time = 3.0});
  s2.run();
  EXPECT_EQ(n2.count(), 3u);
  s2.run();
  EXPECT_EQ(n2.count(), 3u);
}

TEST(EventFault, NegativeDeferThrows) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& gate = m.add<EventFault>("gate", scripted_gate({}, -1.0));
  auto& n = m.add<EventCounter>("n");
  m.connect_event(clk, 0, gate, gate.event_in());
  m.connect_event(gate, gate.event_out(), n, 0);
  Simulator s(m, SimOptions{.end_time = 1.0});
  EXPECT_THROW(s.run(), std::exception);
}

TEST(EventMerge, ForwardsAllInputs) {
  Model m;
  auto& c1 = m.add<Clock>("c1", 1.0);
  auto& c2 = m.add<Clock>("c2", 1.0, 0.5);
  auto& merge = m.add<EventMerge>("merge", 2);
  auto& n = m.add<EventCounter>("n");
  m.connect_event(c1, 0, merge, 0);
  m.connect_event(c2, 0, merge, 1);
  m.connect_event(merge, 0, n, 0);
  Simulator s(m, SimOptions{.end_time = 2.0});
  s.run();
  EXPECT_EQ(n.count(), 5u);  // 0, .5, 1, 1.5, 2
}

}  // namespace
}  // namespace ecsim::blocks
