// State-space system descriptions used by the control-design layer.
#pragma once

#include "mathlib/matrix.hpp"

namespace ecsim::control {

using math::Matrix;

/// LTI system x' = Ax + Bu, y = Cx + Du (continuous) or
/// x+ = Ax + Bu, y = Cx + Du (discrete with sampling period ts).
struct StateSpace {
  Matrix a, b, c, d;
  bool discrete = false;
  double ts = 0.0;  // sampling period; meaningful iff discrete

  std::size_t order() const { return a.rows(); }
  std::size_t num_inputs() const { return b.cols(); }
  std::size_t num_outputs() const { return c.rows(); }

  /// Dimension consistency check; throws std::invalid_argument on violation.
  void validate() const;

  /// True if the autonomous system is asymptotically stable
  /// (eigs in open left half-plane / open unit disk).
  bool is_stable() const;
};

/// Full-state-output helper: C = I, D = 0.
StateSpace make_state_system(Matrix a, Matrix b);

/// Controllability matrix [B AB ... A^{n-1}B].
Matrix controllability_matrix(const StateSpace& sys);
/// Rank of a matrix by Gaussian elimination with pivot tolerance.
std::size_t rank(const Matrix& m, double tol = 1e-9);
bool is_controllable(const StateSpace& sys, double tol = 1e-9);
bool is_observable(const StateSpace& sys, double tol = 1e-9);

}  // namespace ecsim::control
