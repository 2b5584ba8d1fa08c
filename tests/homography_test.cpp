#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "geometry/affine.h"
#include "geometry/homography.h"
#include "geometry/ransac.h"

namespace vs::geo {
namespace {

std::vector<point_pair> exact_pairs(const mat3& truth, int count,
                                    std::uint64_t seed) {
  rng gen(seed);
  std::vector<point_pair> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const vec2 p{gen.uniform_real(0.0, 128.0), gen.uniform_real(0.0, 96.0)};
    pairs.push_back({p, truth.apply(p)});
  }
  return pairs;
}

class HomographyRecovery : public ::testing::TestWithParam<mat3> {};

TEST_P(HomographyRecovery, RecoversExactTransform) {
  const mat3 truth = GetParam();
  const auto pairs = exact_pairs(truth, 16, 11);
  const auto estimate = estimate_homography(pairs);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_LT(estimate->projective_distance(truth), 1e-6);
}

mat3 slight_perspective() {
  mat3 m = mat3::translation(3.0, 1.0) * mat3::rotation(0.1);
  m(2, 0) = 1e-4;
  m(2, 1) = -5e-5;
  return m;
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, HomographyRecovery,
    ::testing::Values(mat3::identity(), mat3::translation(10.0, -4.0),
                      mat3::rotation(0.25), mat3::scaling(1.3, 0.8),
                      mat3::translation(5.0, 2.0) * mat3::rotation(-0.4) *
                          mat3::scaling(1.1, 1.1),
                      slight_perspective()));

TEST(Homography, NeedsFourPairs) {
  const auto pairs = exact_pairs(mat3::identity(), 3, 5);
  EXPECT_FALSE(estimate_homography(pairs).has_value());
}

TEST(Homography, CollinearPointsDegenerate) {
  std::vector<point_pair> pairs;
  for (int i = 0; i < 6; ++i) {
    const vec2 p{static_cast<double>(i), static_cast<double>(2 * i)};
    pairs.push_back({p, p});
  }
  EXPECT_FALSE(estimate_homography(pairs).has_value());
}

TEST(Homography, ReprojectionErrorZeroForExact) {
  const mat3 truth = mat3::translation(2.0, 2.0);
  const point_pair pair{{5.0, 6.0}, truth.apply({5.0, 6.0})};
  EXPECT_NEAR(reprojection_error(truth, pair), 0.0, 1e-9);
}

TEST(Homography, ReprojectionErrorMeasuresDisplacement) {
  const point_pair pair{{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_NEAR(reprojection_error(mat3::identity(), pair), 5.0, 1e-9);
}

TEST(Homography, PlausibleAcceptsRigid) {
  EXPECT_TRUE(plausible_homography(mat3::identity()));
  EXPECT_TRUE(plausible_homography(mat3::rotation(1.0)));
  EXPECT_TRUE(plausible_homography(mat3::translation(100.0, 50.0)));
}

TEST(Homography, PlausibleRejectsCollapseAndExplosion) {
  EXPECT_FALSE(plausible_homography(mat3::scaling(0.1, 0.1), 4.0));
  EXPECT_FALSE(plausible_homography(mat3::scaling(10.0, 10.0), 4.0));
}

TEST(Homography, PlausibleRejectsReflection) {
  EXPECT_FALSE(plausible_homography(mat3::scaling(-1.0, 1.0)));
}

TEST(Homography, PlausibleRejectsStrongPerspective) {
  mat3 m = mat3::identity();
  m(2, 0) = 0.5;
  EXPECT_FALSE(plausible_homography(m));
}

TEST(Affine, RecoversExactAffine) {
  const mat3 truth = mat3::affine(1.2, -0.3, 7.0, 0.25, 0.9, -2.0);
  const auto pairs = exact_pairs(truth, 12, 17);
  const auto estimate = estimate_affine(pairs);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_LT(estimate->projective_distance(truth), 1e-6);
}

TEST(Affine, NeedsThreePairs) {
  const auto pairs = exact_pairs(mat3::identity(), 2, 3);
  EXPECT_FALSE(estimate_affine(pairs).has_value());
}

TEST(Affine, CollinearDegenerate) {
  std::vector<point_pair> pairs;
  for (int i = 0; i < 5; ++i) {
    const vec2 p{static_cast<double>(i), 0.0};
    pairs.push_back({p, p});
  }
  EXPECT_FALSE(estimate_affine(pairs).has_value());
}

TEST(Ransac, RecoversModelDespiteOutliers) {
  const mat3 truth = mat3::translation(6.0, -3.0) * mat3::rotation(0.15);
  auto pairs = exact_pairs(truth, 40, 31);
  rng junk(99);
  for (int i = 0; i < 15; ++i) {
    pairs.push_back({{junk.uniform_real(0, 128), junk.uniform_real(0, 96)},
                     {junk.uniform_real(0, 128), junk.uniform_real(0, 96)}});
  }
  ransac_params params;
  params.min_inliers = 20;
  const auto fit = ransac_homography(pairs, params, 7);
  ASSERT_TRUE(fit.has_value());
  EXPECT_GE(fit->inlier_count, 38u);
  EXPECT_LT(fit->model.projective_distance(truth), 1e-4);
}

class RansacOutlierSweep : public ::testing::TestWithParam<int> {};

TEST_P(RansacOutlierSweep, SurvivesOutlierFraction) {
  const int outliers = GetParam();
  const mat3 truth = mat3::translation(-4.0, 8.0);
  auto pairs = exact_pairs(truth, 30, 41);
  rng junk(1234);
  for (int i = 0; i < outliers; ++i) {
    pairs.push_back({{junk.uniform_real(0, 128), junk.uniform_real(0, 96)},
                     {junk.uniform_real(0, 128), junk.uniform_real(0, 96)}});
  }
  ransac_params params;
  params.min_inliers = 25;
  params.max_iterations = 400;
  const auto fit = ransac_homography(pairs, params, 5);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->model.projective_distance(truth), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(OutlierCounts, RansacOutlierSweep,
                         ::testing::Values(0, 5, 15, 30));

TEST(Ransac, DeterministicForSameSeed) {
  const mat3 truth = mat3::rotation(0.2);
  auto pairs = exact_pairs(truth, 25, 51);
  ransac_params params;
  const auto a = ransac_homography(pairs, params, 77);
  const auto b = ransac_homography(pairs, params, 77);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->inlier_count, b->inlier_count);
  EXPECT_LT(a->model.projective_distance(b->model), 1e-12);
}

TEST(Ransac, RejectsWhenTooFewInliers) {
  rng junk(3);
  std::vector<point_pair> pairs;
  for (int i = 0; i < 30; ++i) {
    pairs.push_back({{junk.uniform_real(0, 128), junk.uniform_real(0, 96)},
                     {junk.uniform_real(0, 128), junk.uniform_real(0, 96)}});
  }
  ransac_params params;
  params.min_inliers = 25;
  EXPECT_FALSE(ransac_homography(pairs, params, 7).has_value());
}

TEST(Ransac, AffineVariantRecovers) {
  const mat3 truth = mat3::affine(1.1, 0.1, -5.0, -0.05, 0.95, 3.0);
  auto pairs = exact_pairs(truth, 30, 61);
  ransac_params params;
  params.min_inliers = 20;
  const auto fit = ransac_affine(pairs, params, 9);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->model.projective_distance(truth), 1e-5);
}

TEST(Ransac, EarlyExitUsesFewerIterationsOnCleanData) {
  const mat3 truth = mat3::translation(1.0, 1.0);
  auto pairs = exact_pairs(truth, 30, 71);
  ransac_params params;
  params.max_iterations = 500;
  const auto fit = ransac_homography(pairs, params, 3);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->iterations_run, 50);
}

TEST(Ransac, ZeroSampleSizeThrows) {
  std::vector<point_pair> pairs(10);
  ransac_params params;
  params.sample_size = 0;
  auto estimator = [](std::span<const point_pair>) {
    return std::optional<mat3>{};
  };
  auto error = [](const mat3&, const point_pair&) { return 0.0; };
  EXPECT_THROW((void)ransac_fit(pairs, params, estimator, error, 1),
               invalid_argument);
}

}  // namespace
}  // namespace vs::geo
