// Steady-state discrete Kalman filter design (dual of dlqr).
#pragma once

#include "control/state_space.hpp"

namespace ecsim::control {

struct KalmanResult {
  Matrix l;  // steady-state observer gain: xhat+ = A xhat + B u + L (y - C xhat)
  Matrix p;  // steady-state a-priori error covariance
};

/// Steady-state Kalman gain for x+ = Ax + Bu + w, y = Cx + v with
/// process covariance Qw (n x n) and measurement covariance Rv (p x p).
KalmanResult dkalman(const Matrix& a, const Matrix& c, const Matrix& qw,
                     const Matrix& rv);

/// Observer-based tracking compensator for the co-simulation loop, combining
/// dlqr gain K and Kalman gain L: input [y; r], output u with
///   xhat+ = (A - BK - LC) xhat + L y + B nbar r
///   u     = -K xhat + nbar r
/// The nbar feedforward enters both the estimate propagation (through the
/// plant model) and the control, so y tracks a constant reference r.
StateSpace observer_tracking_compensator(const StateSpace& plant,
                                         const Matrix& k, const Matrix& l,
                                         double nbar);

}  // namespace ecsim::control
