#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/event_blocks.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/probe.hpp"
#include "blocks/sample_hold.hpp"
#include "blocks/sources.hpp"

namespace ecsim::sim {
namespace {

using namespace ecsim::blocks;

TEST(Simulator, CombinationalChainEvaluatesInOrder) {
  Model m;
  auto& c = m.add<Constant>("c", 2.0);
  auto& g1 = m.add<Gain>("g1", 3.0);
  auto& g2 = m.add<Gain>("g2", 5.0);
  m.connect(c, 0, g1, 0);
  m.connect(g1, 0, g2, 0);
  Simulator s(m, SimOptions{.end_time = 0.1});
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(g2, 0), 30.0);
}

TEST(Simulator, CombinationalOrderIndependentOfInsertion) {
  // Insert consumer before producer; topological ordering must fix it.
  Model m;
  auto& g = m.add<Gain>("g", 3.0);
  auto& c = m.add<Constant>("c", 2.0);
  m.connect(c, 0, g, 0);
  Simulator s(m, SimOptions{.end_time = 0.1});
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(g, 0), 6.0);
}

TEST(Simulator, AlgebraicLoopDetected) {
  Model m;
  auto& g1 = m.add<Gain>("g1", 0.5);
  auto& g2 = m.add<Gain>("g2", 0.5);
  m.connect(g1, 0, g2, 0);
  m.connect(g2, 0, g1, 0);
  EXPECT_THROW(Simulator s(m), std::runtime_error);
}

TEST(Simulator, LoopThroughNonFeedthroughBlockIsFine) {
  // Integrator breaks the algebraic loop: dx/dt = -x.
  Model m;
  auto& integ = m.add<Integrator>("x", 1.0);
  auto& g = m.add<Gain>("g", -1.0);
  m.connect(integ, 0, g, 0);
  m.connect(g, 0, integ, 0);
  SimOptions opts;
  opts.end_time = 1.0;
  opts.integrator.max_step = 1e-3;
  Simulator s(m, opts);
  s.run();
  EXPECT_NEAR(s.output_value(integ, 0), std::exp(-1.0), 1e-6);
}

TEST(Simulator, IntegratesSineDrive) {
  // d/dt x = cos(2 pi f t) -> x = sin(2 pi f t)/(2 pi f)
  Model m;
  const double f = 1.0;
  auto& cosine = m.add<Sine>("cos", 1.0, f, std::numbers::pi / 2.0);
  auto& integ = m.add<Integrator>("x", 0.0);
  m.connect(cosine, 0, integ, 0);
  SimOptions opts;
  opts.end_time = 0.25;  // quarter period
  opts.integrator.max_step = 1e-3;
  Simulator s(m, opts);
  s.run();
  EXPECT_NEAR(s.output_value(integ, 0), 1.0 / (2.0 * std::numbers::pi), 1e-7);
}

TEST(Simulator, Rkf45MatchesRk4) {
  auto run = [](IntegratorKind kind) {
    Model m;
    auto& integ = m.add<Integrator>("x", 1.0);
    auto& g = m.add<Gain>("g", -2.0);
    m.connect(integ, 0, g, 0);
    m.connect(g, 0, integ, 0);
    SimOptions opts;
    opts.end_time = 1.0;
    opts.integrator.kind = kind;
    opts.integrator.max_step = 1e-2;
    Simulator s(m, opts);
    s.run();
    return s.output_value(integ, 0);
  };
  const double exact = std::exp(-2.0);
  EXPECT_NEAR(run(IntegratorKind::kRk4), exact, 1e-8);
  EXPECT_NEAR(run(IntegratorKind::kRkf45), exact, 1e-6);
}

TEST(Simulator, ClockFiresPeriodically) {
  Model m;
  auto& clk = m.add<Clock>("clk", 0.1);
  (void)clk;
  Simulator s(m, SimOptions{.end_time = 1.0});
  s.run();
  // Clock self-ticks; its own activations are traced.
  const auto times = s.trace().activation_times_by_name("clk");
  ASSERT_EQ(times.size(), 11u);  // t = 0.0, 0.1, ..., 1.0
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(times[k], 0.1 * static_cast<double>(k), 1e-12);
  }
}

TEST(Simulator, EventCounterCountsClockTicks) {
  Model m;
  auto& clk = m.add<Clock>("clk", 0.25);
  auto& counter = m.add<EventCounter>("n");
  m.connect_event(clk, 0, counter, 0);
  Simulator s(m, SimOptions{.end_time = 1.0});
  s.run();
  EXPECT_EQ(counter.count(), 5u);  // 0, .25, .5, .75, 1.0
  EXPECT_DOUBLE_EQ(s.output_value(counter, 0), 5.0);
}

TEST(Simulator, SampleHoldFreezesBetweenEvents) {
  Model m;
  auto& ramp = m.add<Sine>("src", 1.0, 0.25);  // slow sine
  auto& clk = m.add<Clock>("clk", 0.5);
  auto& sh = m.add<SampleHold>("sh", 1);
  m.connect(ramp, 0, sh, 0);
  m.connect_event(clk, 0, sh, 0);
  SimOptions opts;
  opts.end_time = 0.74;  // last sample at t = 0.5
  Simulator s(m, opts);
  s.run();
  const double expected = std::sin(2.0 * std::numbers::pi * 0.25 * 0.5);
  EXPECT_NEAR(s.output_value(sh, 0), expected, 1e-9);
}

TEST(Simulator, ZeroDelayEventChainSameInstantCausalOrder) {
  // clock -> S/H -> (done) -> discrete gain controller: all at t = k.
  Model m;
  auto& src = m.add<Constant>("one", 1.0);
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& sh = m.add<SampleHold>("sh", 1);
  auto& acc = m.add<StateSpaceDisc>(
      "acc", math::Matrix{{1.0}}, math::Matrix{{1.0}}, math::Matrix{{1.0}},
      math::Matrix{{0.0}});
  m.connect(src, 0, sh, 0);
  m.connect(sh, 0, acc, 0);
  m.connect_event(clk, 0, sh, 0);
  m.connect_event(sh, sh.done_event_out(), acc, acc.event_in());
  Simulator s(m, SimOptions{.end_time = 3.0});
  s.run();
  // Activations at t=0,1,2,3: x accumulates the held 1.0 each time; the
  // output y = x is pre-update, so after 4 activations y = 3.
  EXPECT_DOUBLE_EQ(s.output_value(acc, 0), 3.0);
}

TEST(Simulator, RunIsRepeatable) {
  Model m;
  auto& clk = m.add<Clock>("clk", 0.1);
  auto& noise = m.add<NoiseHold>("noise", 0.0, 1.0, 1);
  m.connect_event(clk, 0, noise, 0);
  Simulator s(m, SimOptions{.end_time = 1.0, .seed = 77});
  s.run();
  const double v1 = s.output_value(noise, 0);
  s.run();
  const double v2 = s.output_value(noise, 0);
  EXPECT_DOUBLE_EQ(v1, v2);  // same seed, same draws
}

TEST(Simulator, EventDelayShiftsActivation) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0);
  auto& delay = m.add<EventDelay>("d", 0.3);
  auto& counter = m.add<EventCounter>("n");
  m.connect_event(clk, 0, delay, 0);
  m.connect_event(delay, 0, counter, 0);
  Simulator s(m, SimOptions{.end_time = 2.5});
  s.run();
  const auto times = s.trace().activation_times_by_name("n");
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 0.3, 1e-12);
  EXPECT_NEAR(times[1], 1.3, 1e-12);
  EXPECT_NEAR(times[2], 2.3, 1e-12);
}

TEST(Simulator, MaxEventsGuardsRunawayLoop) {
  Model m;
  auto& merge = m.add<EventMerge>("loop", 1);
  m.connect_event(merge, 0, merge, 0);  // zero-delay self-loop
  auto& clk = m.add<Clock>("clk", 1.0);
  m.connect_event(clk, 0, merge, 0);
  SimOptions opts;
  opts.end_time = 1.0;
  opts.max_events = 1000;
  Simulator s(m, opts);
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Simulator, ProbeRecordsPeriodically) {
  Model m;
  auto& c = m.add<Constant>("c", 4.0);
  auto& probe = m.add<Probe>("p", 1, 0.25);
  m.connect(c, 0, probe, 0);
  Simulator s(m, SimOptions{.end_time = 1.0});
  const Trace& tr = s.run();
  const auto series = tr.series(m.index_of(probe));
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[2].second, 4.0);
  EXPECT_NEAR(series[4].first, 1.0, 1e-12);
}

TEST(Simulator, TriggeredProbeRecordsOnEventsOnly) {
  // Probe with record_period == 0: records only when its event input fires.
  Model m;
  auto& src = m.add<Sine>("src", 1.0, 1.0);
  auto& clk = m.add<Clock>("clk", 0.25, 0.1);
  auto& probe = m.add<Probe>("p", 1, 0.0);
  m.connect(src, 0, probe, 0);
  m.connect_event(clk, 0, probe, 0);
  Simulator s(m, SimOptions{.end_time = 1.0});
  const Trace& tr = s.run();
  const auto series = tr.series(m.index_of(probe));
  ASSERT_EQ(series.size(), 4u);  // 0.1, 0.35, 0.6, 0.85
  EXPECT_NEAR(series[0].first, 0.1, 1e-12);
  EXPECT_NEAR(series[0].second, std::sin(2.0 * std::numbers::pi * 0.1), 1e-9);
  EXPECT_EQ(probe.samples_taken(), 4u);
}

TEST(Simulator, UnconnectedInputReadsZero) {
  Model m;
  auto& g = m.add<Gain>("g", 5.0);
  Simulator s(m, SimOptions{.end_time = 0.1});
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(g, 0), 0.0);
}

TEST(Simulator, StateSpacePlantStepResponse) {
  // First-order lag dx = -x + u, y = x with u = 1: y(t) = 1 - e^{-t}.
  Model m;
  auto& u = m.add<Constant>("u", 1.0);
  auto& plant = m.add<StateSpaceCont>("plant", math::Matrix{{-1.0}},
                                      math::Matrix{{1.0}}, math::Matrix{{1.0}},
                                      math::Matrix{{0.0}});
  m.connect(u, 0, plant, 0);
  SimOptions opts;
  opts.end_time = 2.0;
  opts.integrator.max_step = 1e-3;
  Simulator s(m, opts);
  s.run();
  EXPECT_NEAR(s.output_value(plant, 0), 1.0 - std::exp(-2.0), 1e-7);
}

}  // namespace
}  // namespace ecsim::sim
