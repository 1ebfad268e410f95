// DurationSpec: an execution-duration distribution as data (DESIGN.md §3.6)
// — a tagged spec the IR can serialize and the native code generator can
// re-emit, so every EventDelay is regenerable on any backend.
//
// Determinism contract: sample_duration() consumes the RNG in one fixed
// call sequence per kind, so traces are bit-identical across backends.
#pragma once

#include <vector>

#include "mathlib/rng.hpp"

namespace ecsim::blocks {

struct DurationSpec {
  enum class Kind {
    kConstant,         ///< always `value` (WCET mode)
    kUniform,          ///< uniform in [bcet, wcet]
    kTruncatedNormal,  ///< normal(mean, stddev) truncated to [bcet, wcet]
    kShiftedUniform,   ///< max(0, base + uniform(-jitter/2, jitter/2))
    kBranches,         ///< conditional op: pick a branch WCET, then uniform
                       ///< in [bcet_fraction * WCET, WCET]
  };

  Kind kind = Kind::kConstant;
  double value = 0.0;                // kConstant
  double bcet = 0.0;                 // kUniform, kTruncatedNormal
  double wcet = 0.0;                 // kUniform, kTruncatedNormal
  double mean = 0.0;                 // kTruncatedNormal
  double stddev = 0.0;               // kTruncatedNormal
  double base = 0.0;                 // kShiftedUniform
  double jitter = 0.0;               // kShiftedUniform (peak-to-peak)
  std::vector<double> branch_wcets;  // kBranches
  double bcet_fraction = 1.0;        // kBranches
  bool random_branch = false;        // kBranches (else always branch 0)
};

/// Draws one duration. Pure in (spec, rng state); the only RNG consumer.
double sample_duration(const DurationSpec& spec, math::Rng& rng);

/// Constant-duration spec (WCET mode). Throws std::invalid_argument on a
/// negative duration.
DurationSpec constant_duration(double d);
/// Uniform in [bcet, wcet]. Throws unless 0 <= bcet <= wcet.
DurationSpec uniform_duration(double bcet, double wcet);
/// Normal truncated to [bcet, wcet]. Throws unless 0 <= bcet <= wcet.
DurationSpec truncated_normal_duration(double mean, double stddev, double bcet,
                                       double wcet);
/// max(0, base + uniform(-jitter/2, jitter/2)): a nominal latency with
/// peak-to-peak jitter, clamped at zero. Throws on negative jitter.
DurationSpec shifted_uniform_duration(double base, double jitter);
/// Conditional-operation model: pick branch b (uniformly when
/// `random_branch`, else always 0), then WCET mode when bcet_fraction >= 1
/// or uniform in [bcet_fraction * wcet_b, wcet_b]. Throws on an empty
/// branch list, a negative WCET or bcet_fraction outside [0, 1].
DurationSpec branch_duration(std::vector<double> branch_wcets,
                             double bcet_fraction, bool random_branch);

}  // namespace ecsim::blocks
