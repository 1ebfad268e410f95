// Deterministic random number generation for reproducible experiments.
// Every draw the engines make comes from a keyed stream (keyed_rng below):
// a fresh Rng per (seed, key, k), so a draw depends on its coordinates
// alone and never on how many draws other keys made. Workload generators
// (random test graphs, bench inputs) seed an Rng directly.
#pragma once

#include <cstdint>

namespace ecsim::math {

/// Thin deterministic PRNG (xoshiro256** core) with the distributions the
/// simulator needs. Not std::mt19937 so that streams are stable across
/// standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller.
  double normal();
  double normal(double mean, double stddev);
  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

 private:
  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// splitmix64 finalizer: the seed scrambler Rng's constructor applies.
std::uint64_t mix64(std::uint64_t z);

/// A fresh stream keyed by (seed, key, k): Rng(mix64(seed ^ mix64(key) ^
/// mix64(k))). A key is a domain constant plus an entity id; k is the
/// iteration (or activation) index. What a keyed stream yields depends on
/// these coordinates alone, never on how many draws other keys made, so
/// every engine asking the same key draws the same values whatever order it
/// visits the keys in (fault decisions, execution times, branch choices,
/// sampled noise, Monte Carlo trial seeds).
Rng keyed_rng(std::uint64_t seed, std::uint64_t key, std::uint64_t k);

}  // namespace ecsim::math
