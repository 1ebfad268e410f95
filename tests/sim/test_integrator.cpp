#include "sim/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ecsim::sim {
namespace {

// dx/dt = -x, x(0) = 1 -> x(t) = e^{-t}
const DerivFn kDecay = [](Time, const std::vector<double>& x,
                          std::vector<double>& dx) { dx[0] = -x[0]; };

TEST(Integrator, Rk4Accuracy) {
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRk4;
  opts.max_step = 1e-3;
  std::vector<double> x{1.0};
  integrate(opts, kDecay, 0.0, 1.0, x);
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-10);
}

TEST(Integrator, Rk4LandsExactlyOnEndTime) {
  // Interval not divisible by max_step: final partial step must be taken.
  IntegratorOptions opts;
  opts.max_step = 0.3;
  std::vector<double> x{1.0};
  integrate(opts, kDecay, 0.0, 1.0, x);
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-4);
}

TEST(Integrator, Rkf45AdaptsAndMeetsTolerance) {
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  opts.max_step = 0.5;
  opts.rel_tol = 1e-9;
  opts.abs_tol = 1e-12;
  std::vector<double> x{1.0};
  integrate(opts, kDecay, 0.0, 2.0, x);
  EXPECT_NEAR(x[0], std::exp(-2.0), 1e-7);
}

TEST(Integrator, HarmonicOscillatorEnergyPreserved) {
  const DerivFn osc = [](Time, const std::vector<double>& x,
                         std::vector<double>& dx) {
    dx[0] = x[1];
    dx[1] = -x[0];
  };
  IntegratorOptions opts;
  opts.max_step = 1e-3;
  std::vector<double> x{1.0, 0.0};
  integrate(opts, osc, 0.0, 2.0 * std::numbers::pi, x);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 0.0, 1e-8);
}

TEST(Integrator, TimeDependentDerivative) {
  // dx/dt = t -> x(T) = T^2/2
  const DerivFn ramp = [](Time t, const std::vector<double>&,
                          std::vector<double>& dx) { dx[0] = t; };
  IntegratorOptions opts;
  opts.max_step = 1e-2;
  std::vector<double> x{0.0};
  integrate(opts, ramp, 0.0, 3.0, x);
  EXPECT_NEAR(x[0], 4.5, 1e-9);
}

TEST(Integrator, EmptyStateIsNoOp) {
  IntegratorOptions opts;
  std::vector<double> x;
  integrate(opts, kDecay, 0.0, 1.0, x);  // must not call dxdt
  EXPECT_TRUE(x.empty());
}

TEST(Integrator, BackwardIntervalThrows) {
  IntegratorOptions opts;
  std::vector<double> x{1.0};
  EXPECT_THROW(integrate(opts, kDecay, 1.0, 0.0, x), std::invalid_argument);
}

TEST(Integrator, ZeroLengthIntervalLeavesStateUntouched) {
  IntegratorOptions opts;
  std::vector<double> x{3.0};
  integrate(opts, kDecay, 1.0, 1.0, x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(Integrator, Rkf45ZeroLengthIntervalLeavesStateUntouched) {
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  std::vector<double> x{3.0};
  integrate(opts, kDecay, 2.0, 2.0, x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(Integrator, Rkf45BackwardIntervalThrows) {
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  std::vector<double> x{1.0};
  EXPECT_THROW(integrate(opts, kDecay, 1.0, 0.0, x), std::invalid_argument);
}

TEST(Integrator, Rkf45ForcedAcceptAtMinStepMakesProgress) {
  // Tolerance no step size can meet, with min_step == max_step pinning h.
  // Every attempt "fails" the error test, so only the h <= min_step
  // forced-accept branch lets time advance; without it this would loop
  // forever retrying the same step.
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  opts.max_step = 0.25;
  opts.min_step = 0.25;
  opts.rel_tol = 1e-16;
  opts.abs_tol = 1e-18;
  std::vector<double> x{1.0};
  integrate(opts, kDecay, 0.0, 1.0, x);
  // Forced accepts take the 5th-order solution: four fixed h=0.25 steps.
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-6);
}

TEST(Integrator, Rkf45ZeroErrorEstimateGrowsStepAndCompletes) {
  // dx/dt = 0: the embedded 4th/5th-order solutions agree exactly, so the
  // scaled error is 0.0. The controller must treat that as "grow by the
  // cap" (the old code computed the growth factor from a stale err value);
  // either way the run must terminate quickly with the state untouched.
  const DerivFn zero = [](Time, const std::vector<double>&,
                          std::vector<double>& dx) { dx[0] = 0.0; };
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  opts.max_step = 0.5;
  std::vector<double> x{2.5};
  integrate(opts, zero, 0.0, 100.0, x);
  EXPECT_DOUBLE_EQ(x[0], 2.5);
}

TEST(Integrator, MinStepClampKeepsStepAboveFloor) {
  // A violently stiff interval start: the controller shrinks h, but the
  // min_step clamp must keep it from collapsing to denormal sizes — the run
  // completes in bounded work because h >= min_step always.
  const DerivFn stiff = [](Time, const std::vector<double>& x,
                           std::vector<double>& dx) { dx[0] = -1e6 * x[0]; };
  IntegratorOptions opts;
  opts.kind = IntegratorKind::kRkf45;
  opts.max_step = 1e-2;
  opts.min_step = 1e-7;
  opts.rel_tol = 1e-10;
  opts.abs_tol = 1e-12;
  std::vector<double> x{1.0};
  integrate(opts, stiff, 0.0, 1e-5, x);
  EXPECT_NEAR(x[0], std::exp(-10.0), 1e-4);
}

TEST(IntegratorWorkspace, ResizeGrowsOnceAndIsIdempotent) {
  IntegratorWorkspace ws;
  EXPECT_EQ(ws.size(), 0u);
  ws.resize(3);
  EXPECT_EQ(ws.size(), 3u);
  ASSERT_EQ(ws.k1.size(), 3u);
  ASSERT_EQ(ws.x5.size(), 3u);
  const double* k1 = ws.k1.data();
  ws.resize(3);  // same dimension: must not touch the buffers
  EXPECT_EQ(ws.k1.data(), k1);
}

}  // namespace
}  // namespace ecsim::sim
