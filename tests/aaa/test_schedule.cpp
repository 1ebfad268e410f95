#include "aaa/schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "aaa/adequation.hpp"

namespace ecsim::aaa {
namespace {

struct Fixture {
  AlgorithmGraph alg{"chain", 0.01};
  ArchitectureGraph arch{ArchitectureGraph::bus_architecture(2, 1e4, 1e-5)};
  OpId s, c, a;

  Fixture() {
    s = alg.add_simple("sense", OpKind::kSensor, 1e-4);
    c = alg.add_simple("ctrl", OpKind::kCompute, 5e-4);
    a = alg.add_simple("act", OpKind::kActuator, 1e-4);
    alg.add_dependency(s, c, 8.0);
    alg.add_dependency(c, a, 8.0);
  }
};

TEST(Schedule, AddOpValidation) {
  Schedule sched(2, 1);
  EXPECT_THROW(sched.add_op(ScheduledOp{0, 0, 1.0, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_op(ScheduledOp{0, 5, 0.0, 1.0}), std::out_of_range);
  sched.add_op(ScheduledOp{0, 1, 0.0, 1.0});
  EXPECT_EQ(sched.ops_on(1).size(), 1u);
  EXPECT_TRUE(sched.has_op(0));
  EXPECT_FALSE(sched.has_op(3));
  EXPECT_THROW(sched.of_op(3), std::out_of_range);
}

TEST(Schedule, OfOpReturnsFirstEntryAndThrowsWhenAbsent) {
  Schedule sched(2, 1);
  sched.add_op(ScheduledOp{2, 0, 0.0, 1.0});
  sched.add_op(ScheduledOp{0, 1, 0.5, 1.0});
  sched.add_op(ScheduledOp{2, 1, 1.0, 2.0});  // a second entry for op 2
  EXPECT_EQ(sched.of_op(2).proc, 0u);
  EXPECT_DOUBLE_EQ(sched.of_op(2).end, 1.0);
  EXPECT_EQ(sched.of_op(0).proc, 1u);
  EXPECT_FALSE(sched.has_op(1));
  EXPECT_FALSE(sched.has_op(1000));
  EXPECT_THROW(sched.of_op(1), std::out_of_range);
  EXPECT_THROW(sched.of_op(1000), std::out_of_range);
  EXPECT_THROW(sched.add_op(ScheduledOp{kNone, 0, 0.0, 1.0}),
               std::out_of_range);
}

TEST(Schedule, LinkHopsPairsConsecutiveHopsFirstMatch) {
  Schedule sched(3, 1);
  const Hop h{0, 0, 1};
  // (dep, hop) per comm index, deliberately out of order, with a duplicate
  // (1, 1) and a route gap for dep 0 (no hop 2).
  const std::pair<std::size_t, std::size_t> keys[] = {
      {1, 1}, {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 3}, {2, 0}};
  for (const auto& [dep, hop] : keys) {
    sched.add_comm(ScheduledComm{dep, h, hop, 0.0, 1.0});
  }
  const HopLinks links = link_hops(sched);
  const std::vector<std::size_t> prev = {2, kNone, kNone, 1, 2, kNone, kNone};
  const std::vector<std::size_t> next = {kNone, 3, 0, kNone, kNone, kNone,
                                         kNone};
  EXPECT_EQ(links.prev, prev);
  EXPECT_EQ(links.next, next);
  EXPECT_TRUE(link_hops(Schedule(1, 1)).prev.empty());
}

TEST(Schedule, MakespanOverOpsAndComms) {
  Schedule sched(1, 1);
  sched.add_op(ScheduledOp{0, 0, 0.0, 1.0});
  sched.add_comm(ScheduledComm{0, Hop{0, 0, 0}, 0, 1.0, 2.5});
  EXPECT_DOUBLE_EQ(sched.makespan(), 2.5);
}

/// The message `validate` throws, or "" when the schedule is accepted.
std::string validate_error(const Schedule& sched, const Fixture& f) {
  try {
    sched.validate(f.alg, f.arch);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ScheduleValidate, AcceptsAdequationOutput) {
  Fixture f;
  const Schedule sched = adequate(f.alg, f.arch);
  EXPECT_NO_THROW(sched.validate(f.alg, f.arch));
}

TEST(ScheduleValidate, CatchesMissingOp) {
  Fixture f;
  Schedule sched(2, 1);
  sched.add_op(ScheduledOp{f.s, 0, 0.0, 1e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: op 'ctrl' scheduled 0 times");
}

TEST(ScheduleValidate, CatchesProcessorOverlap) {
  Fixture f;
  Schedule sched(2, 1);
  sched.add_op(ScheduledOp{f.s, 0, 0.0, 2e-4});
  sched.add_op(ScheduledOp{f.c, 0, 1e-4, 6e-4});  // overlaps sense
  sched.add_op(ScheduledOp{f.a, 0, 6e-4, 7e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: overlap on processor 'P0'");
}

TEST(ScheduleValidate, CatchesDependencyViolation) {
  Fixture f;
  Schedule sched(2, 1);
  // ctrl before sense on the same processor.
  sched.add_op(ScheduledOp{f.c, 0, 0.0, 5e-4});
  sched.add_op(ScheduledOp{f.s, 0, 5e-4, 6e-4});
  sched.add_op(ScheduledOp{f.a, 0, 6e-4, 7e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: dependency 'sense' -> 'ctrl' violated");
}

TEST(ScheduleValidate, CatchesMissingCommunication) {
  Fixture f;
  Schedule sched(2, 1);
  // sense on P0, ctrl on P1 with no bus transfer scheduled.
  sched.add_op(ScheduledOp{f.s, 0, 0.0, 1e-4});
  sched.add_op(ScheduledOp{f.c, 1, 2e-4, 7e-4});
  sched.add_op(ScheduledOp{f.a, 1, 7e-4, 8e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: missing communication for 'sense' -> 'ctrl'");
}

TEST(ScheduleValidate, CatchesLateDataArrival) {
  Fixture f;
  Schedule sched(2, 1);
  sched.add_op(ScheduledOp{f.s, 0, 0.0, 1e-4});
  // Transfer completes after ctrl starts.
  sched.add_comm(ScheduledComm{0, Hop{0, 0, 1}, 0, 1e-4, 9e-4});
  sched.add_op(ScheduledOp{f.c, 1, 2e-4, 7e-4});
  sched.add_op(ScheduledOp{f.a, 1, 7e-4, 8e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: data arrives late for 'ctrl'");
}

TEST(ScheduleValidate, CatchesIncompatiblePlacement) {
  Fixture f;
  f.alg.op(f.s).bound_processor = "P1";
  Schedule sched(2, 1);
  sched.add_op(ScheduledOp{f.s, 0, 0.0, 1e-4});  // violates binding
  sched.add_op(ScheduledOp{f.c, 0, 1e-4, 6e-4});
  sched.add_op(ScheduledOp{f.a, 0, 6e-4, 7e-4});
  EXPECT_EQ(validate_error(sched, f),
            "Schedule: op 'sense' violates placement constraint");
}

TEST(Schedule, ToStringListsAllComponents) {
  Fixture f;
  const Schedule sched = adequate(f.alg, f.arch);
  const std::string text = sched.to_string(f.alg, f.arch);
  EXPECT_NE(text.find("P0"), std::string::npos);
  EXPECT_NE(text.find("sense"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

}  // namespace
}  // namespace ecsim::aaa
