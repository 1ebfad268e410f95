#include "blocks/sources.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mathlib/rng.hpp"
#include "sim/simulator.hpp"

namespace ecsim::blocks {
namespace {

using sim::Model;
using sim::SimOptions;
using sim::Simulator;

TEST(Clock, ValidatesParameters) {
  EXPECT_THROW(Clock("c", 0.0), std::invalid_argument);
  EXPECT_THROW(Clock("c", -1.0), std::invalid_argument);
  EXPECT_THROW(Clock("c", 1.0, -0.5), std::invalid_argument);
}

TEST(Clock, OffsetShiftsFirstTick) {
  Model m;
  auto& clk = m.add<Clock>("clk", 1.0, 0.4);
  (void)clk;
  Simulator s(m, SimOptions{.end_time = 2.5});
  s.run();
  const auto times = s.trace().activation_times_by_name("clk");
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 0.4, 1e-12);
  EXPECT_NEAR(times[1], 1.4, 1e-12);
  EXPECT_NEAR(times[2], 2.4, 1e-12);
}

TEST(Step, SwitchesAtStepTime) {
  Model m;
  auto& st = m.add<Step>("st", -1.0, 2.0, 0.5);
  Simulator s(m, SimOptions{.end_time = 0.4});
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(st, 0), -1.0);
  Simulator s2(m, SimOptions{.end_time = 0.6});
  s2.run();
  EXPECT_DOUBLE_EQ(s2.output_value(st, 0), 2.0);
}

TEST(Constant, VectorOutput) {
  Model m;
  auto& c = m.add<Constant>("c", std::vector<double>{1.0, -2.0, 3.0});
  Simulator s(m, SimOptions{.end_time = 0.1});
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(c, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.output_value(c, 0, 1), -2.0);
  EXPECT_DOUBLE_EQ(s.output_value(c, 0, 2), 3.0);
}

TEST(Sine, AmplitudeFrequencyPhaseBias) {
  Model m;
  auto& sn = m.add<Sine>("s", 2.0, 0.5, 0.3, 1.0);
  Simulator s(m, SimOptions{.end_time = 0.8});
  s.run();
  const double expect =
      2.0 * std::sin(2.0 * std::numbers::pi * 0.5 * 0.8 + 0.3) + 1.0;
  EXPECT_NEAR(s.output_value(sn, 0), expect, 1e-12);
}

TEST(Pulse, DutyCycle) {
  Model m;
  auto& p = m.add<Pulse>("p", 0.0, 5.0, 1.0, 0.25);
  Simulator s1(m, SimOptions{.end_time = 0.2});
  s1.run();
  EXPECT_DOUBLE_EQ(s1.output_value(p, 0), 5.0);  // inside high window
  Simulator s2(m, SimOptions{.end_time = 0.3});
  s2.run();
  EXPECT_DOUBLE_EQ(s2.output_value(p, 0), 0.0);  // after duty fraction
  EXPECT_THROW(Pulse("x", 0.0, 1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Pulse("x", 0.0, 1.0, 0.0, 0.5), std::invalid_argument);
}

TEST(NoiseHold, HoldsBetweenEventsAndIsSeeded) {
  Model m;
  auto& clk = m.add<Clock>("clk", 0.5);
  auto& n = m.add<NoiseHold>("n", 10.0, 2.0, 4);
  m.connect_event(clk, 0, n, 0);
  Simulator s(m, SimOptions{.end_time = 10.0, .seed = 5});
  s.run();
  const double v1 = s.output_value(n, 0);
  s.run();
  EXPECT_DOUBLE_EQ(s.output_value(n, 0), v1);
  EXPECT_NEAR(v1, 10.0, 12.0);  // plausible draw around the mean
  // Activation k (ticks at 0, 0.5, ..., 10: k = 20 last) draws from the
  // stream keyed by (run seed, key, k).
  EXPECT_EQ(v1, math::keyed_rng(5, 4, 20).normal(10.0, 2.0));
}

}  // namespace
}  // namespace ecsim::blocks
