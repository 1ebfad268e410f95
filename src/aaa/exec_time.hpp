// The one execution-time draw (DESIGN.md §3.11): the actual duration and the
// taken branch of an operation instance, as a pure function of the run seed,
// the instance's key and its iteration. The executive VM calls it per op
// instance (and per CAN blocking wait); the graph of delays calls it through
// blocks::DurationSpec::Kind::kKeyed with the EventDelay's activation count
// as the iteration. Both engines therefore draw the same times whatever
// order they visit the instances in, and the co-simulation's instants are
// instants the implementation produces.
//
// Free of any dependency beyond mathlib: the native-backend runtime archive
// compiles this file without dragging in the rest of the AAA layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ecsim::aaa {

/// Which branch a conditional operation takes at run time.
enum class BranchChoice {
  kFirst,      ///< always branch 0
  kWorstCase,  ///< the first branch with the largest WCET on the op's host
               ///< processor — what the static schedule reserves
  kUniform,    ///< uniformly random, drawn from the instance's keyed stream
};

/// Keys of the draws: one domain per kind of instance, plus its index.
/// Every key lies at or above 2^56, so it never equals an iteration index k:
/// keyed_rng mixes key and k symmetrically, and (a, b) must not read the
/// stream of (b, a).
inline constexpr std::uint64_t kCanWaitDomain = std::uint64_t{1} << 56;
inline constexpr std::uint64_t kBoundBranchDomain = std::uint64_t{2} << 56;
inline constexpr std::uint64_t kOpDomain = std::uint64_t{3} << 56;
/// Random blocks of a co-simulation that model no operation (measurement
/// noise, actuation jitter): blocks::NoiseHold and sampled EventDelay keys.
inline constexpr std::uint64_t kBlockDomain = std::uint64_t{4} << 56;
/// Monte Carlo trial seeds, drawn under the batch seed.
inline constexpr std::uint64_t kTrialDomain = std::uint64_t{5} << 56;

/// The execution time (and branch) of operation `op`.
inline std::uint64_t op_key(std::size_t op) { return kOpDomain + op; }

/// Random block number `i` of a co-simulation loop.
inline std::uint64_t block_key(std::size_t i) { return kBlockDomain + i; }

/// The CAN blocking wait before schedule comm `comm`.
inline std::uint64_t can_wait_key(std::size_t comm) {
  return kCanWaitDomain + comm;
}
/// Branch `branch` of a data-bound conditional op (graph of delays only:
/// the branch is chosen by a plant signal, not by the draw).
inline std::uint64_t bound_branch_key(std::size_t op, std::size_t branch) {
  return kBoundBranchDomain + (static_cast<std::uint64_t>(op) << 20) + branch;
}

struct ExecDraw {
  std::size_t branch = 0;
  double duration = 0.0;
};

/// Picks the branch by `choice` (kUniform draws it when there is more than
/// one), then the duration: the branch's WCET when bcet_fraction >= 1, else
/// uniform in [bcet_fraction * wcet, wcet]. Draws come from the stream keyed
/// by (seed, key, k) (math::keyed_rng), branch first; a WCET draw with a
/// fixed branch constructs no stream at all. `branch_wcets` is non-empty.
ExecDraw draw_exec_time(std::span<const double> branch_wcets,
                        double bcet_fraction, BranchChoice choice,
                        std::uint64_t seed, std::uint64_t key, std::uint64_t k);

}  // namespace ecsim::aaa
