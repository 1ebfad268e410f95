// DurationSpec: an execution-duration distribution as data (DESIGN.md §3.6)
// — a tagged spec the IR can serialize and the native code generator can
// re-emit, so every EventDelay is regenerable on any backend.
//
// Determinism contract: every random kind draws activation k from the
// stream keyed by (run seed, spec key, k) (math::keyed_rng), so a block's
// durations depend on neither the event interleaving nor the other random
// blocks in the model, and traces are bit-identical across backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aaa/exec_time.hpp"

namespace ecsim::blocks {

struct DurationSpec {
  /// The values are the IR's "dist" tags; tags of deleted kinds (1, 2, 4)
  /// are never reused.
  enum class Kind {
    kConstant = 0,        ///< always `value` (WCET mode)
    kShiftedUniform = 3,  ///< max(0, base + uniform(-jitter/2, jitter/2)),
                          ///< keyed by (run seed, key, activation index)
    kKeyed = 5,           ///< an operation's execution time: the draw of
                          ///< aaa::draw_exec_time keyed by (run seed, key,
                          ///< activation index)
  };

  Kind kind = Kind::kConstant;
  double value = 0.0;                // kConstant
  double base = 0.0;                 // kShiftedUniform
  double jitter = 0.0;               // kShiftedUniform (peak-to-peak)
  std::vector<double> branch_wcets;  // kKeyed
  double bcet_fraction = 1.0;        // kKeyed
  aaa::BranchChoice branch = aaa::BranchChoice::kFirst;  // kKeyed
  std::uint64_t key = 0;             // kShiftedUniform, kKeyed
};

/// Draws the duration of activation number `k` (0-based) of a block run
/// with seed `seed`: a pure function of (spec, seed, k).
double sample_duration(const DurationSpec& spec, std::uint64_t seed,
                       std::uint64_t k);

/// Constant-duration spec (WCET mode). Throws std::invalid_argument on a
/// negative duration.
DurationSpec constant_duration(double d);
/// max(0, base + uniform(-jitter/2, jitter/2)) keyed by `key`: a nominal
/// latency with peak-to-peak jitter, clamped at zero. Throws on negative
/// jitter.
DurationSpec shifted_uniform_duration(double base, double jitter,
                                      std::uint64_t key);
/// An operation's execution time as the executive VM draws it: the branch
/// by `branch`, then the WCET or uniform in [bcet_fraction * wcet, wcet],
/// keyed by `key`. Throws on an empty branch list, a negative WCET or
/// bcet_fraction outside [0, 1].
DurationSpec keyed_duration(std::vector<double> branch_wcets,
                            double bcet_fraction, aaa::BranchChoice branch,
                            std::uint64_t key);

/// The flat encoding of a spec in a native module's parameter table: the
/// Kind tag, then the arguments of the kind's factory in order (a vector as
/// its length then its values, an enum as its index, the 64-bit key as two
/// exact 32-bit halves, high half first).
std::vector<double> duration_params(const DurationSpec& s);
/// Inverse of duration_params: decodes the spec that starts at p[pos]
/// through the validated factories and advances `pos` past it. Throws
/// std::invalid_argument when `p` holds no valid spec there.
DurationSpec duration_from_params(std::span<const double> p, std::size_t& pos);

}  // namespace ecsim::blocks
