#include "mathlib/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mathlib/stats.hpp"

namespace ecsim::math {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(5);
  std::vector<double> sample(20000);
  for (double& v : sample) v = rng.uniform();
  const Summary s = summarize(sample);
  EXPECT_NEAR(s.mean, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(5, 3), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> sample(40000);
  for (double& v : sample) v = rng.normal(2.0, 3.0);
  const Summary s = summarize(sample);
  EXPECT_NEAR(s.mean, 2.0, 0.1);
  EXPECT_NEAR(s.stddev, 3.0, 0.1);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.truncated_normal(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_THROW(rng.truncated_normal(0.0, 1.0, 1.0, -1.0),
               std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.categorical({1.0, 2.0, 1.0})];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.50, 0.02);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, JumpChangesStateDeterministically) {
  Rng a(42), b(42);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // A jumped stream is not the original stream.
  Rng c(42), d(42);
  d.jump();
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    if (c.next_u64() != d.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitIsDeterministicAndDoesNotAdvance) {
  Rng root(7);
  const auto first = root.split(4);
  const auto second = root.split(4);  // same state -> same streams
  ASSERT_EQ(first.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    Rng a = first[i], b = second[i];
    for (int k = 0; k < 64; ++k) EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // split() must not consume draws from the root stream.
  Rng untouched(7);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(root.next_u64(), untouched.next_u64());
}

TEST(Rng, SplitStreamsDoNotOverlapInOneMillionDraws) {
  // Four decorrelated streams, 250k u64 draws each (1M total): with jumps of
  // 2^128 the subsequences are disjoint by construction, so every value must
  // be distinct (a collision of 64-bit values among 1M uniform draws has
  // probability ~2.7e-8 — any overlap of the streams would show up as exact
  // shared runs instead).
  const auto streams = Rng(12345).split(4);
  std::vector<std::uint64_t> draws;
  draws.reserve(1'000'000);
  for (Rng s : streams) {
    for (int i = 0; i < 250'000; ++i) draws.push_back(s.next_u64());
  }
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::adjacent_find(draws.begin(), draws.end()), draws.end());
}

TEST(Rng, SplitStreamZeroEqualsRoot) {
  Rng root(99);
  auto streams = root.split(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(streams[0].next_u64(), root.next_u64());
  }
}

TEST(Rng, LaneInterleavedFillMatchesSequentialDrawsByteForByte) {
  // Drawing one value from each of W split streams per round — the
  // lane-interleaved order par/monte_carlo.cpp draws its seeds in — yields
  // exactly the per-stream sequences a scalar loop over the same streams
  // would draw. Lane l, round r of the interleaved fill must be
  // byte-identical to draw r of stream l.
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kRounds = 256;

  std::vector<Rng> interleaved = Rng(2024).split(kLanes);
  std::vector<Rng> sequential = Rng(2024).split(kLanes);

  std::vector<std::uint64_t> lane_u64(kLanes);
  for (std::size_t r = 0; r < kRounds; ++r) {
    fill_lanes_u64(interleaved, lane_u64);
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(lane_u64[l], sequential[l].next_u64())
          << "round " << r << " lane " << l;
    }
  }
}

TEST(Rng, FillLanesRejectsSizeMismatch) {
  std::vector<Rng> streams = Rng(1).split(4);
  std::vector<std::uint64_t> short_out(3);
  std::vector<std::uint64_t> long_out(5);
  EXPECT_THROW(fill_lanes_u64(streams, short_out), std::invalid_argument);
  EXPECT_THROW(fill_lanes_u64(streams, long_out), std::invalid_argument);
}

}  // namespace
}  // namespace ecsim::math
