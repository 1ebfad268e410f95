#include "aaa/exec_time.hpp"

#include <algorithm>

#include "mathlib/rng.hpp"

namespace ecsim::aaa {

ExecDraw draw_exec_time(std::span<const double> branch_wcets,
                        double bcet_fraction, BranchChoice choice,
                        std::uint64_t seed, std::uint64_t key,
                        std::uint64_t k) {
  ExecDraw d;
  if (choice == BranchChoice::kWorstCase) {
    d.branch = static_cast<std::size_t>(
        std::max_element(branch_wcets.begin(), branch_wcets.end()) -
        branch_wcets.begin());
  }
  const bool pick = choice == BranchChoice::kUniform && branch_wcets.size() > 1;
  const bool jitter = bcet_fraction < 1.0;
  if (!pick && !jitter) {
    d.duration = branch_wcets[d.branch];
    return d;
  }
  math::Rng rng = math::keyed_rng(seed, key, k);
  if (pick) {
    d.branch = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(branch_wcets.size()) - 1));
  }
  const double wcet = branch_wcets[d.branch];
  d.duration = jitter ? rng.uniform(bcet_fraction * wcet, wcet) : wcet;
  return d;
}

}  // namespace ecsim::aaa
