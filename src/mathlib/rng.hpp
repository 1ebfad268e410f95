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
  /// Truncated normal in [lo, hi] by rejection (falls back to clamping
  /// after 64 rejections to stay O(1)).
  double truncated_normal(double mean, double stddev, double lo, double hi);
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

/// Draw one u64 from each stream into out[l] — one lane-interleaved "row"
/// of draws across a batch. Because split() streams are non-overlapping and
/// independently stateful, W rows drawn this way are byte-identical to each
/// stream drawing its W values sequentially — the invariant that lets the
/// VM Monte Carlo (par/monte_carlo.cpp) draw a chunk's per-trial seeds in
/// one row without the chunk width changing any trial's seed
/// (property-tested in tests/mathlib/test_rng.cpp).
/// `streams` and `out` must have equal sizes.
void fill_lanes_u64(std::vector<Rng>& streams,
                    std::vector<std::uint64_t>& out);

}  // namespace ecsim::math
