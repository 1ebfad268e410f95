// Deterministic random number generation for reproducible experiments.
// All stochastic components (execution-time models, workload generators)
// take an explicit Rng so every run is seed-reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace ecsim::math {

/// Thin deterministic PRNG (xoshiro256** core) with the distributions the
/// simulator needs. Not std::mt19937 so that streams are stable across
/// standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

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
  /// Pick an index in [0, weights.size()) with probability ~ weights[i].
  std::size_t categorical(const std::vector<double>& weights);

  /// Advance the state by 2^128 next_u64() calls (the xoshiro256** jump
  /// polynomial). Partitions the generator's 2^256-1 period into
  /// non-overlapping subsequences of length 2^128: streams separated by
  /// jumps never collide for any realistic draw count. Discards a pending
  /// Box-Muller spare so jumped streams start from a clean state.
  void jump();

  /// `n` decorrelated streams for parallel tasks: stream 0 is a copy of
  /// *this, stream i is i jumps ahead. Pure function of the current state —
  /// deterministic, does not advance *this — so a batch seeded once yields
  /// the same per-task streams regardless of how tasks are scheduled.
  std::vector<Rng> split(std::size_t n) const;

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
/// visits the keys in (fault decisions, execution times, branch choices).
Rng keyed_rng(std::uint64_t seed, std::uint64_t key, std::uint64_t k);

}  // namespace ecsim::math
