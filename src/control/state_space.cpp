#include "control/state_space.hpp"

#include <cmath>
#include <stdexcept>

#include "mathlib/linalg.hpp"

namespace ecsim::control {

void StateSpace::validate() const {
  const std::size_t n = a.rows();
  if (!a.is_square()) throw std::invalid_argument("StateSpace: A not square");
  if (b.rows() != n) throw std::invalid_argument("StateSpace: B row mismatch");
  if (c.cols() != n) throw std::invalid_argument("StateSpace: C col mismatch");
  if (d.rows() != c.rows() || d.cols() != b.cols()) {
    throw std::invalid_argument("StateSpace: D shape mismatch");
  }
  if (discrete && ts <= 0.0) {
    throw std::invalid_argument("StateSpace: discrete system needs ts > 0");
  }
}

bool StateSpace::is_stable() const {
  if (discrete) return math::spectral_radius(a) < 1.0;
  return math::spectral_abscissa(a) < 0.0;
}

StateSpace make_state_system(Matrix a, Matrix b) {
  const std::size_t n = a.rows();
  const std::size_t m = b.cols();
  StateSpace sys{std::move(a), std::move(b), Matrix::identity(n),
                 Matrix::zeros(n, m), false, 0.0};
  sys.validate();
  return sys;
}

Matrix controllability_matrix(const StateSpace& sys) {
  const std::size_t n = sys.order();
  Matrix result = sys.b;
  Matrix term = sys.b;
  for (std::size_t i = 1; i < n; ++i) {
    term = sys.a * term;
    result = math::hcat(result, term);
  }
  return result;
}

std::size_t rank(const Matrix& m, double tol) {
  Matrix w = m;
  const std::size_t rows = w.rows(), cols = w.cols();
  std::size_t r = 0;
  for (std::size_t c = 0; c < cols && r < rows; ++c) {
    std::size_t piv = r;
    double best = std::abs(w(r, c));
    for (std::size_t i = r + 1; i < rows; ++i) {
      if (std::abs(w(i, c)) > best) {
        best = std::abs(w(i, c));
        piv = i;
      }
    }
    if (best <= tol) continue;
    if (piv != r) {
      for (std::size_t j = 0; j < cols; ++j) std::swap(w(r, j), w(piv, j));
    }
    for (std::size_t i = r + 1; i < rows; ++i) {
      const double f = w(i, c) / w(r, c);
      for (std::size_t j = c; j < cols; ++j) w(i, j) -= f * w(r, j);
    }
    ++r;
  }
  return r;
}

bool is_controllable(const StateSpace& sys, double tol) {
  return rank(controllability_matrix(sys), tol) == sys.order();
}

bool is_observable(const StateSpace& sys, double tol) {
  StateSpace dual = sys;
  dual.a = sys.a.transpose();
  dual.b = sys.c.transpose();
  dual.c = sys.b.transpose();
  dual.d = sys.d.transpose();
  return rank(controllability_matrix(dual), tol) == sys.order();
}

}  // namespace ecsim::control
