#include "control/kalman.hpp"

#include <stdexcept>

#include "mathlib/linalg.hpp"
#include "mathlib/riccati.hpp"

namespace ecsim::control {

KalmanResult dkalman(const Matrix& a, const Matrix& c, const Matrix& qw,
                     const Matrix& rv) {
  // Duality: DARE on (A', C') with weights (Qw, Rv).
  const Matrix p = math::solve_dare(a.transpose(), c.transpose(), qw, rv);
  // L = A P C' (Rv + C P C')^-1   <=>  L' = (Rv + C P C')^-1 C P A'
  const Matrix lt = math::solve(rv + c * p * c.transpose(),
                                c * p * a.transpose());
  return KalmanResult{lt.transpose(), p};
}

StateSpace observer_tracking_compensator(const StateSpace& plant,
                                         const Matrix& k, const Matrix& l,
                                         double nbar) {
  plant.validate();
  if (!plant.discrete) {
    throw std::invalid_argument(
        "observer_tracking_compensator: need a discrete plant");
  }
  if (plant.num_outputs() != 1 || plant.num_inputs() != 1) {
    throw std::invalid_argument("observer_tracking_compensator: SISO only");
  }
  const Matrix& a = plant.a;
  const Matrix& b = plant.b;
  const Matrix& c = plant.c;
  // Input vector: [y; r].
  StateSpace comp;
  comp.a = a - b * k - l * c;
  comp.b = math::hcat(l, b * Matrix{{nbar}});
  comp.c = -k;
  comp.d = Matrix::zeros(1, 2);
  comp.d(0, 1) = nbar;
  comp.discrete = true;
  comp.ts = plant.ts;
  comp.validate();
  return comp;
}

}  // namespace ecsim::control
