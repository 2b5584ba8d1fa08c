#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "geometry/linalg.h"
#include "geometry/mat3.h"

namespace vs::geo {
namespace {

constexpr double kTol = 1e-9;

TEST(Mat3, IdentityAppliesNothing) {
  const mat3 id = mat3::identity();
  const vec2 p{3.5, -2.25};
  EXPECT_NEAR(id.apply(p).x, p.x, kTol);
  EXPECT_NEAR(id.apply(p).y, p.y, kTol);
  EXPECT_NEAR(id.det(), 1.0, kTol);
}

TEST(Mat3, TranslationMovesPoints) {
  const auto t = mat3::translation(5.0, -3.0);
  const vec2 q = t.apply({1.0, 1.0});
  EXPECT_NEAR(q.x, 6.0, kTol);
  EXPECT_NEAR(q.y, -2.0, kTol);
}

TEST(Mat3, RotationQuarterTurn) {
  const auto r = mat3::rotation(M_PI / 2);
  const vec2 q = r.apply({1.0, 0.0});
  EXPECT_NEAR(q.x, 0.0, kTol);
  EXPECT_NEAR(q.y, 1.0, kTol);
}

TEST(Mat3, ScalingScalesDeterminant) {
  const auto s = mat3::scaling(2.0, 3.0);
  EXPECT_NEAR(s.det(), 6.0, kTol);
}

TEST(Mat3, MultiplicationComposes) {
  const auto t = mat3::translation(1.0, 0.0);
  const auto r = mat3::rotation(M_PI / 2);
  // (r * t) means translate first, then rotate.
  const vec2 q = (r * t).apply({0.0, 0.0});
  EXPECT_NEAR(q.x, 0.0, kTol);
  EXPECT_NEAR(q.y, 1.0, kTol);
}

TEST(Mat3, InverseRoundTrips) {
  const mat3 m = mat3::translation(4.0, -7.0) * mat3::rotation(0.3) *
                 mat3::scaling(1.5, 0.75);
  const auto inv = m.inverse();
  ASSERT_TRUE(inv.has_value());
  const mat3 prod = m * (*inv);
  EXPECT_LT(prod.projective_distance(mat3::identity()), 1e-9);
}

TEST(Mat3, SingularHasNoInverse) {
  const mat3 collapse(1, 0, 0, 2, 0, 0, 3, 0, 1);  // rank-deficient
  EXPECT_FALSE(collapse.inverse().has_value());
}

TEST(Mat3, ApplyNearInfinityReturnsSentinel) {
  mat3 m = mat3::identity();
  m(2, 0) = 1.0;
  m(2, 2) = 0.0;  // w = x
  const vec2 q = m.apply({0.0, 5.0});  // w == 0
  EXPECT_GT(std::abs(q.x) + std::abs(q.y), 1e14);
}

TEST(Mat3, NormalizeSetsBottomRightToOne) {
  mat3 m = mat3::identity() * 4.0;
  m.normalize();
  EXPECT_NEAR(m(2, 2), 1.0, kTol);
  EXPECT_NEAR(m(0, 0), 1.0, kTol);
}

TEST(Mat3, IsAffineDetectsProjectiveTerms) {
  EXPECT_TRUE(mat3::identity().is_affine());
  mat3 m = mat3::identity();
  m(2, 0) = 0.01;
  EXPECT_FALSE(m.is_affine());
}

TEST(Mat3, ProjectiveDistanceInvariantToScale) {
  const mat3 m = mat3::translation(2.0, 3.0);
  const mat3 scaled = m * 7.5;
  EXPECT_LT(m.projective_distance(scaled), 1e-9);
}

TEST(Vec2, Arithmetic) {
  const vec2 a{1.0, 2.0};
  const vec2 b{3.0, -1.0};
  EXPECT_EQ((a + b), (vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (vec2{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (vec2{2.0, 4.0}));
  EXPECT_NEAR(a.dot(b), 1.0, kTol);
  EXPECT_NEAR(distance(a, b), std::sqrt(13.0), kTol);
}

TEST(Linalg, SolvesDiagonalSystem) {
  const auto x = solve_gaussian({2, 0, 0, 3}, {4, 9});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, kTol);
  EXPECT_NEAR((*x)[1], 3.0, kTol);
}

TEST(Linalg, SolvesSystemRequiringPivoting) {
  // First pivot is zero; partial pivoting must swap rows.
  const auto x = solve_gaussian({0, 1, 1, 0}, {5, 7});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 7.0, kTol);
  EXPECT_NEAR((*x)[1], 5.0, kTol);
}

TEST(Linalg, SingularSystemReturnsNullopt) {
  EXPECT_FALSE(solve_gaussian({1, 2, 2, 4}, {1, 2}).has_value());
}

TEST(Linalg, RejectsShapeMismatch) {
  EXPECT_THROW((void)solve_gaussian({1, 2, 3}, {1, 2}), invalid_argument);
}

TEST(Linalg, LeastSquaresExactSolution) {
  // y = 2x + 1 sampled at x = 0..3, design matrix [x 1].
  const std::vector<double> a = {0, 1, 1, 1, 2, 1, 3, 1};
  const std::vector<double> b = {1, 3, 5, 7};
  const auto x = solve_least_squares(a, b, 4, 2);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, kTol);
  EXPECT_NEAR((*x)[1], 1.0, kTol);
}

TEST(Linalg, LeastSquaresMinimizesResidual) {
  // Inconsistent system: best fit of constant to {0, 10} is 5.
  const std::vector<double> a = {1, 1};
  const std::vector<double> b = {0, 10};
  const auto x = solve_least_squares(a, b, 2, 1);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 5.0, kTol);
}

TEST(Linalg, LeastSquaresRejectsUnderdetermined) {
  EXPECT_THROW((void)solve_least_squares({1, 2}, {1}, 1, 2), invalid_argument);
}

}  // namespace
}  // namespace vs::geo
