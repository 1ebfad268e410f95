#include "blocks/duration_spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "mathlib/rng.hpp"

namespace ecsim::blocks {

double sample_duration(const DurationSpec& spec, std::uint64_t seed,
                       std::uint64_t k) {
  switch (spec.kind) {
    case DurationSpec::Kind::kConstant:
      return spec.value;
    case DurationSpec::Kind::kShiftedUniform: {
      const double half = spec.jitter / 2.0;
      const double u = math::keyed_rng(seed, spec.key, k).uniform(-half, half);
      return std::max(0.0, spec.base + u);
    }
    case DurationSpec::Kind::kKeyed:
      return aaa::draw_exec_time(spec.branch_wcets, spec.bcet_fraction,
                                 spec.branch, seed, spec.key, k)
          .duration;
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

DurationSpec shifted_uniform_duration(double base, double jitter,
                                      std::uint64_t key) {
  if (jitter < 0.0) {
    throw std::invalid_argument("shifted_uniform_duration: negative jitter");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kShiftedUniform;
  s.base = base;
  s.jitter = jitter;
  s.key = key;
  return s;
}

DurationSpec keyed_duration(std::vector<double> branch_wcets,
                            double bcet_fraction, aaa::BranchChoice branch,
                            std::uint64_t key) {
  if (branch_wcets.empty()) {
    throw std::invalid_argument("keyed_duration: no branches");
  }
  for (double w : branch_wcets) {
    if (!(w >= 0.0)) throw std::invalid_argument("keyed_duration: negative WCET");
  }
  if (!(bcet_fraction >= 0.0 && bcet_fraction <= 1.0)) {
    throw std::invalid_argument(
        "keyed_duration: bcet_fraction must be in [0,1]");
  }
  DurationSpec s;
  s.kind = DurationSpec::Kind::kKeyed;
  s.branch_wcets = std::move(branch_wcets);
  s.bcet_fraction = bcet_fraction;
  s.branch = branch;
  s.key = key;
  return s;
}

std::vector<double> duration_params(const DurationSpec& s) {
  std::vector<double> out{static_cast<double>(s.kind)};
  switch (s.kind) {
    case DurationSpec::Kind::kConstant:
      out.push_back(s.value);
      break;
    case DurationSpec::Kind::kShiftedUniform:
      out.insert(out.end(), {s.base, s.jitter});
      break;
    case DurationSpec::Kind::kKeyed:
      out.push_back(static_cast<double>(s.branch_wcets.size()));
      out.insert(out.end(), s.branch_wcets.begin(), s.branch_wcets.end());
      out.push_back(s.bcet_fraction);
      out.push_back(static_cast<double>(s.branch));
      break;
  }
  if (s.kind != DurationSpec::Kind::kConstant) {
    out.push_back(static_cast<double>(s.key >> 32));
    out.push_back(static_cast<double>(s.key & 0xffffffffULL));
  }
  return out;
}

DurationSpec duration_from_params(std::span<const double> p,
                                  std::size_t& pos) {
  auto real = [&]() -> double {
    if (pos >= p.size()) {
      throw std::invalid_argument("duration_from_params: read past the end");
    }
    return p[pos++];
  };
  // A count, tag or 32-bit half: integral, >= 0 and < bound.
  auto index = [&](double bound) -> std::size_t {
    const double v = real();
    if (!(v >= 0.0) || v >= bound || v != std::floor(v)) {
      throw std::invalid_argument("duration_from_params: bad index");
    }
    return static_cast<std::size_t>(v);
  };
  auto key = [&]() -> std::uint64_t {
    const std::uint64_t hi = index(4294967296.0);
    return (hi << 32) | index(4294967296.0);
  };
  using K = DurationSpec::Kind;
  switch (static_cast<K>(index(8.0))) {
    case K::kConstant:
      return constant_duration(real());
    case K::kShiftedUniform: {
      const double base = real();
      const double jitter = real();
      return shifted_uniform_duration(base, jitter, key());
    }
    case K::kKeyed: {
      const std::size_t n = index(9007199254740992.0);
      if (n > p.size() - pos) {
        throw std::invalid_argument("duration_from_params: bad vector length");
      }
      std::vector<double> wcets(p.begin() + static_cast<std::ptrdiff_t>(pos),
                                p.begin() + static_cast<std::ptrdiff_t>(pos + n));
      pos += n;
      const double fraction = real();
      const auto branch = static_cast<aaa::BranchChoice>(index(3.0));
      return keyed_duration(std::move(wcets), fraction, branch, key());
    }
  }
  throw std::invalid_argument("duration_from_params: unknown distribution");
}

}  // namespace ecsim::blocks
