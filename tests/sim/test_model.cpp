#include "sim/model.hpp"

#include <gtest/gtest.h>

#include "blocks/math_blocks.hpp"
#include "blocks/sources.hpp"

namespace ecsim::sim {
namespace {

using blocks::Constant;
using blocks::Gain;

TEST(Model, AddAndIndex) {
  Model m;
  auto& c = m.add<Constant>("c", 1.0);
  auto& g = m.add<Gain>("g", 2.0);
  EXPECT_EQ(m.num_blocks(), 2u);
  EXPECT_EQ(m.index_of(c), 0u);
  EXPECT_EQ(m.index_of(g), 1u);
  EXPECT_EQ(m.index_by_name("g"), 1u);
  EXPECT_THROW(m.index_by_name("nope"), std::out_of_range);
}

TEST(Model, IndexOfForeignBlockThrows) {
  Model m1, m2;
  auto& c = m1.add<Constant>("c", 1.0);
  EXPECT_THROW(m2.index_of(c), std::invalid_argument);
}

TEST(Model, ConnectValidatesPorts) {
  Model m;
  auto& c = m.add<Constant>("c", 1.0);
  auto& g = m.add<Gain>("g", 2.0);
  m.connect(c, 0, g, 0);
  EXPECT_EQ(m.data_wires().size(), 1u);
  EXPECT_THROW(m.connect(c, 1, g, 0), std::out_of_range);   // no output 1
  EXPECT_THROW(m.connect(c, 0, g, 1), std::out_of_range);   // no input 1
}

TEST(Model, ConnectRejectsDoubleDrive) {
  Model m;
  auto& c1 = m.add<Constant>("c1", 1.0);
  auto& c2 = m.add<Constant>("c2", 2.0);
  auto& g = m.add<Gain>("g", 2.0);
  m.connect(c1, 0, g, 0);
  EXPECT_THROW(m.connect(c2, 0, g, 0), std::invalid_argument);
}

TEST(Model, ConnectRejectsWidthMismatch) {
  Model m;
  auto& wide = m.add<Constant>("wide", std::vector<double>{1.0, 2.0});
  auto& g = m.add<Gain>("g", 2.0);  // expects width 1
  EXPECT_THROW(m.connect(wide, 0, g, 0), std::invalid_argument);
}

TEST(Model, ConnectEventValidatesPorts) {
  Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1.0);
  auto& g = m.add<Gain>("g", 2.0);  // no event inputs
  EXPECT_THROW(m.connect_event(clk, 0, g, 0), std::out_of_range);
  EXPECT_THROW(m.connect_event(g, 0, clk, 0), std::out_of_range);
}

TEST(Model, EventFanOutAllowed) {
  Model m;
  auto& clk = m.add<blocks::Clock>("clk", 1.0);
  auto& n1 = m.add<blocks::NoiseHold>("n1", 0.0, 1.0, 1);
  auto& n2 = m.add<blocks::NoiseHold>("n2", 0.0, 1.0, 2);
  m.connect_event(clk, 0, n1, 0);
  m.connect_event(clk, 0, n2, 0);
  EXPECT_EQ(m.event_wires().size(), 2u);
}

}  // namespace
}  // namespace ecsim::sim
