#include "blocks/duration_spec.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace ecsim::blocks {

double sample_duration(const DurationSpec& spec, math::Rng& rng) {
  switch (spec.kind) {
    case DurationSpec::Kind::kConstant:
      return spec.value;
    case DurationSpec::Kind::kUniform:
      return rng.uniform(spec.bcet, spec.wcet);
    case DurationSpec::Kind::kTruncatedNormal:
      return rng.truncated_normal(spec.mean, spec.stddev, spec.bcet,
                                  spec.wcet);
    case DurationSpec::Kind::kShiftedUniform:
      return std::max(
          0.0, spec.base + rng.uniform(-spec.jitter / 2.0, spec.jitter / 2.0));
    case DurationSpec::Kind::kBranches: {
      const std::size_t b =
          spec.random_branch
              ? static_cast<std::size_t>(rng.uniform_int(
                    0,
                    static_cast<std::int64_t>(spec.branch_wcets.size()) - 1))
              : 0;
      const double wcet = spec.branch_wcets[b];
      return spec.bcet_fraction >= 1.0
                 ? wcet
                 : rng.uniform(spec.bcet_fraction * wcet, wcet);
    }
  }
  throw std::logic_error("sample_duration: corrupt kind");
}

DurationSpec constant_duration(double d) {
  if (d < 0.0) throw std::invalid_argument("constant_duration: negative");
  DurationSpec s;
  s.kind = DurationSpec::Kind::kConstant;
  s.value = d;
  return s;
}

DurationSpec uniform_duration(double bcet, double wcet) {
  if (bcet < 0.0 || wcet < bcet) {
    throw std::invalid_argument("uniform_duration: need 0 <= bcet <= wcet");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kUniform;
  s.bcet = bcet;
  s.wcet = wcet;
  return s;
}

DurationSpec truncated_normal_duration(double mean, double stddev, double bcet,
                                       double wcet) {
  if (bcet < 0.0 || wcet < bcet) {
    throw std::invalid_argument("truncated_normal_duration: bad bounds");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kTruncatedNormal;
  s.mean = mean;
  s.stddev = stddev;
  s.bcet = bcet;
  s.wcet = wcet;
  return s;
}

DurationSpec shifted_uniform_duration(double base, double jitter) {
  if (jitter < 0.0) {
    throw std::invalid_argument("shifted_uniform_duration: negative jitter");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kShiftedUniform;
  s.base = base;
  s.jitter = jitter;
  return s;
}

DurationSpec branch_duration(std::vector<double> branch_wcets,
                             double bcet_fraction, bool random_branch) {
  if (branch_wcets.empty()) {
    throw std::invalid_argument("branch_duration: no branches");
  }
  for (double w : branch_wcets) {
    if (w < 0.0) throw std::invalid_argument("branch_duration: negative WCET");
  }
  if (bcet_fraction < 0.0 || bcet_fraction > 1.0) {
    throw std::invalid_argument(
        "branch_duration: bcet_fraction must be in [0,1]");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kBranches;
  s.branch_wcets = std::move(branch_wcets);
  s.bcet_fraction = bcet_fraction;
  s.random_branch = random_branch;
  return s;
}

}  // namespace ecsim::blocks
