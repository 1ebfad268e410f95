#include "control/kalman.hpp"

#include <gtest/gtest.h>

#include "control/c2d.hpp"
#include "control/lqr.hpp"
#include "mathlib/linalg.hpp"

namespace ecsim::control {
namespace {

StateSpace servo_dt(double ts = 0.01) {
  StateSpace ct;
  ct.a = Matrix{{0.0, 1.0}, {0.0, -1.0}};
  ct.b = Matrix{{0.0}, {1000.0}};
  ct.c = Matrix{{1.0, 0.0}};
  ct.d = Matrix{{0.0}};
  return c2d(ct, ts);
}

TEST(Kalman, ObserverErrorDynamicsStable) {
  const StateSpace dt = servo_dt();
  const KalmanResult r = dkalman(dt.a, dt.c, 0.1 * Matrix::identity(2),
                                 Matrix{{0.01}});
  // Estimation error evolves with A - L C: must be Schur stable.
  EXPECT_LT(math::spectral_radius(dt.a - r.l * dt.c), 1.0);
}

TEST(Kalman, GainShrinksWithNoisierMeasurements) {
  const StateSpace dt = servo_dt();
  const KalmanResult trust = dkalman(dt.a, dt.c, Matrix::identity(2),
                                     Matrix{{1e-4}});
  const KalmanResult distrust = dkalman(dt.a, dt.c, Matrix::identity(2),
                                        Matrix{{10.0}});
  EXPECT_GT(trust.l.max_abs(), distrust.l.max_abs());
}

TEST(Kalman, CovarianceIsSymmetricPsd) {
  const StateSpace dt = servo_dt();
  const KalmanResult r = dkalman(dt.a, dt.c, Matrix::identity(2),
                                 Matrix{{0.1}});
  EXPECT_TRUE(math::approx_equal(r.p, r.p.transpose(), 1e-8));
  EXPECT_GE(math::quad_form(r.p, {1.0, 0.0}), 0.0);
  EXPECT_GE(math::quad_form(r.p, {0.5, -0.5}), 0.0);
}

TEST(ObserverTrackingCompensator, TracksConstantReference) {
  const StateSpace dt = servo_dt();
  const LqrResult lqr = dlqr(dt, Matrix::diag({100.0, 0.01}), Matrix{{1e-3}});
  const KalmanResult kal = dkalman(dt.a, dt.c, Matrix::diag({1e-4, 1.0}),
                                   Matrix{{1e-6}});
  const double nbar = reference_gain(dt, lqr.k);
  const StateSpace comp = observer_tracking_compensator(dt, lqr.k, kal.l, nbar);
  EXPECT_EQ(comp.num_inputs(), 2u);  // [y; r]

  // Iterate the full closed loop plant+compensator on r = 1 and check y -> 1.
  std::vector<double> x(2, 0.0), xh(2, 0.0);
  double y = 0.0;
  for (int k = 0; k < 400; ++k) {
    const std::vector<double> yr{y, 1.0};
    const double u = math::dot(comp.c.row(0), xh) + math::dot(comp.d.row(0), yr);
    std::vector<double> xh_next(2, 0.0), x_next(2, 0.0);
    for (std::size_t i = 0; i < 2; ++i) {
      xh_next[i] = math::dot(comp.a.row(i), xh) + math::dot(comp.b.row(i), yr);
      x_next[i] = math::dot(dt.a.row(i), x) + dt.b(i, 0) * u;
    }
    xh = xh_next;
    x = x_next;
    y = math::dot(dt.c.row(0), x);
  }
  EXPECT_NEAR(y, 1.0, 1e-3);
}

TEST(ObserverTrackingCompensator, Validation) {
  StateSpace mimo = servo_dt();
  mimo.c = Matrix::identity(2);
  mimo.d = Matrix::zeros(2, 1);
  EXPECT_THROW(
      observer_tracking_compensator(mimo, Matrix(1, 2), Matrix(2, 2), 1.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace ecsim::control
