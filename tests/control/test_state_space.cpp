#include "control/state_space.hpp"

#include <gtest/gtest.h>

#include "mathlib/linalg.hpp"

namespace ecsim::control {
namespace {

TEST(StateSpace, ValidateCatchesShapeErrors) {
  StateSpace s;
  s.a = Matrix(2, 3);
  s.b = Matrix(2, 1);
  s.c = Matrix(1, 2);
  s.d = Matrix(1, 1);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.a = Matrix(2, 2);
  s.b = Matrix(1, 1);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.b = Matrix(2, 1);
  s.c = Matrix(1, 3);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.c = Matrix(1, 2);
  s.d = Matrix(2, 1);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.d = Matrix(1, 1);
  s.validate();  // now consistent
  s.discrete = true;
  s.ts = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(StateSpace, StabilityPredicates) {
  StateSpace ct;
  ct.a = Matrix{{-1.0, 0.0}, {0.0, -2.0}};
  ct.b = Matrix(2, 1);
  ct.c = Matrix(1, 2);
  ct.d = Matrix(1, 1);
  EXPECT_TRUE(ct.is_stable());
  ct.a(0, 0) = 0.5;
  EXPECT_FALSE(ct.is_stable());

  StateSpace dt = ct;
  dt.discrete = true;
  dt.ts = 0.1;
  dt.a = Matrix{{0.9, 0.0}, {0.0, -0.5}};
  EXPECT_TRUE(dt.is_stable());
  dt.a(0, 0) = 1.1;
  EXPECT_FALSE(dt.is_stable());
}

TEST(StateSpace, MakeStateSystem) {
  const StateSpace s = make_state_system(Matrix{{0.0, 1.0}, {0.0, 0.0}},
                                         Matrix{{0.0}, {1.0}});
  EXPECT_EQ(s.num_outputs(), 2u);
  EXPECT_TRUE(math::approx_equal(s.c, Matrix::identity(2)));
}

TEST(Rank, DetectsDeficiency) {
  EXPECT_EQ(rank(Matrix::identity(3)), 3u);
  EXPECT_EQ(rank(Matrix{{1.0, 2.0}, {2.0, 4.0}}), 1u);
  EXPECT_EQ(rank(Matrix::zeros(2, 2)), 0u);
  EXPECT_EQ(rank(Matrix{{1.0, 0.0, 3.0}, {0.0, 1.0, 2.0}}), 2u);
}

TEST(Controllability, DoubleIntegrator) {
  const StateSpace s = make_state_system(Matrix{{0.0, 1.0}, {0.0, 0.0}},
                                         Matrix{{0.0}, {1.0}});
  EXPECT_TRUE(is_controllable(s));
  EXPECT_TRUE(is_observable(s));
}

TEST(Controllability, DecoupledModeIsUncontrollable) {
  const StateSpace s = make_state_system(Matrix{{1.0, 0.0}, {0.0, 2.0}},
                                         Matrix{{1.0}, {0.0}});
  EXPECT_FALSE(is_controllable(s));
}

TEST(Observability, HiddenModeDetected) {
  StateSpace s = make_state_system(Matrix{{1.0, 0.0}, {0.0, 2.0}},
                                   Matrix{{1.0}, {1.0}});
  s.c = Matrix{{1.0, 0.0}};  // second state unobservable
  s.d = Matrix(1, 1);
  EXPECT_FALSE(is_observable(s));
}

}  // namespace
}  // namespace ecsim::control
