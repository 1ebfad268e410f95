#include "aaa/exec_time.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace ecsim::aaa {
namespace {

TEST(ExecTime, WcetDrawWithAFixedBranchIsTheBranchWcet) {
  const std::vector<double> wcets{2.0, 5.0, 5.0, 1.0};
  const ExecDraw first =
      draw_exec_time(wcets, 1.0, BranchChoice::kFirst, 9, 4, 0);
  EXPECT_EQ(first.branch, 0u);
  EXPECT_EQ(first.duration, 2.0);
  // kWorstCase takes the first largest: the branch the schedule reserves.
  const ExecDraw worst =
      draw_exec_time(wcets, 1.0, BranchChoice::kWorstCase, 9, 4, 0);
  EXPECT_EQ(worst.branch, 1u);
  EXPECT_EQ(worst.duration, 5.0);
}

TEST(ExecTime, DrawIsKeyedAndWithinBounds) {
  const std::vector<double> wcets{2.0, 6.0};
  std::set<std::size_t> branches;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const ExecDraw d =
        draw_exec_time(wcets, 0.25, BranchChoice::kUniform, 3, 11, k);
    branches.insert(d.branch);
    EXPECT_GE(d.duration, 0.25 * wcets[d.branch]);
    EXPECT_LE(d.duration, wcets[d.branch]);
    // Same key, same draw, whatever was drawn in between.
    const ExecDraw again =
        draw_exec_time(wcets, 0.25, BranchChoice::kUniform, 3, 11, k);
    EXPECT_EQ(again.branch, d.branch);
    EXPECT_EQ(again.duration, d.duration);
  }
  EXPECT_EQ(branches.size(), 2u);
  EXPECT_NE(draw_exec_time(wcets, 0.25, BranchChoice::kFirst, 3, 11, 0)
                .duration,
            draw_exec_time(wcets, 0.25, BranchChoice::kFirst, 3, 12, 0)
                .duration);
}

TEST(ExecTime, KeyDomainsDoNotCollide) {
  EXPECT_NE(can_wait_key(0), 0u);
  EXPECT_NE(op_key(0), 0u);
  EXPECT_NE(op_key(0), can_wait_key(0));
  EXPECT_NE(op_key(0), bound_branch_key(0, 0));
  EXPECT_NE(bound_branch_key(0, 0), can_wait_key(0));
  EXPECT_NE(bound_branch_key(1, 0), bound_branch_key(0, 1));
}

// The keyed stream mixes key and k symmetrically; op keys sit in their own
// domain so that op a at iteration b and op b at iteration a draw
// independently, and op i at iteration i is not one stream for every i.
TEST(ExecTime, OpDrawsAreNotSymmetricInOpAndIteration) {
  const std::vector<double> wcets{1.0, 3.0, 5.0};
  const auto at = [&](std::size_t op, std::uint64_t k) {
    return draw_exec_time(wcets, 0.2, BranchChoice::kUniform, 7, op_key(op),
                          k);
  };
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      const ExecDraw ab = at(a, b);
      const ExecDraw ba = at(b, a);
      EXPECT_FALSE(ab.branch == ba.branch && ab.duration == ba.duration)
          << "op " << a << " @ " << b << " vs op " << b << " @ " << a;
    }
  }
  std::set<double> diagonal;
  for (std::size_t i = 0; i < 20; ++i) diagonal.insert(at(i, i).duration);
  EXPECT_EQ(diagonal.size(), 20u);
}

}  // namespace
}  // namespace ecsim::aaa
