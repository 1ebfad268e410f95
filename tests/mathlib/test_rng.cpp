#include "mathlib/rng.hpp"

#include <gtest/gtest.h>

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

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, KeyedStreamIsAPureFunctionOfItsKey) {
  const std::uint64_t a = keyed_rng(7, 3, 2).next_u64();
  EXPECT_EQ(keyed_rng(7, 3, 2).next_u64(), a);
  EXPECT_NE(keyed_rng(8, 3, 2).next_u64(), a);
  EXPECT_NE(keyed_rng(7, 4, 2).next_u64(), a);
  EXPECT_NE(keyed_rng(7, 3, 3).next_u64(), a);
  // Fault decisions and execution times rest on this construction.
  EXPECT_EQ(a, Rng(mix64(7 ^ mix64(3) ^ mix64(2))).next_u64());
}

}  // namespace
}  // namespace ecsim::math
