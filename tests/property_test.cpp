// Property-based sweeps (TEST_P) over the geometric and pipeline invariants
// the reproduction depends on.
#include <gtest/gtest.h>

#include <cmath>

#include "app/pipeline.h"
#include "core/rng.h"
#include "geometry/homography.h"
#include "geometry/ransac.h"
#include "geometry/warp.h"
#include "quality/metric.h"
#include "video/generator.h"

namespace vs {
namespace {

// ---------------------------------------------------------------------------
// Homography estimation under noise: the estimator must degrade gracefully.
// ---------------------------------------------------------------------------

class HomographyNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(HomographyNoiseSweep, RecoversWithinNoiseBound) {
  const double sigma = GetParam();
  const geo::mat3 truth =
      geo::mat3::translation(8.0, -5.0) * geo::mat3::rotation(0.2);
  rng gen(101);
  std::vector<geo::point_pair> pairs;
  for (int i = 0; i < 40; ++i) {
    const geo::vec2 p{gen.uniform_real(0, 128), gen.uniform_real(0, 96)};
    geo::vec2 q = truth.apply(p);
    q.x += gen.normal() * sigma;
    q.y += gen.normal() * sigma;
    pairs.push_back({p, q});
  }
  const auto estimate = geo::estimate_homography(pairs);
  ASSERT_TRUE(estimate.has_value());
  // Residual of the estimate scales with the noise, never explodes.
  double worst = 0.0;
  for (const auto& pair : pairs) {
    worst = std::max(worst, geo::reprojection_error(*estimate, pair));
  }
  EXPECT_LT(worst, 1e-6 + 6.0 * sigma);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, HomographyNoiseSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 1.0, 2.0));

// ---------------------------------------------------------------------------
// Warp round trip: warping by H then by H^-1 reproduces interior content.
// ---------------------------------------------------------------------------

class WarpRoundTrip : public ::testing::TestWithParam<geo::mat3> {};

TEST_P(WarpRoundTrip, ForwardThenInverseIsNearIdentity) {
  const geo::mat3 h = GetParam();
  img::image_u8 src(48, 40, 1);
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 48; ++x) {
      std::uint64_t state = static_cast<std::uint64_t>(y) * 131 + x;
      src.at(x, y) = static_cast<std::uint8_t>(splitmix64(state) % 200 + 20);
    }
  }
  const auto bounds = geo::projected_bounds(h, 48, 40);
  ASSERT_TRUE(bounds.has_value());
  const auto forward = geo::warp_perspective(src, h, *bounds);

  const auto inverse = h.inverse();
  ASSERT_TRUE(inverse.has_value());
  // Map the forward patch back into source coordinates.  The patch's pixel
  // (x, y) sits at world (x + x0, y + y0); account for that offset.
  const geo::mat3 back =
      (*inverse) *
      geo::mat3::translation(static_cast<double>(forward.x0),
                             static_cast<double>(forward.y0));
  const auto round =
      geo::warp_perspective(forward.pixels, back, geo::rect{0, 0, 48, 40});

  // Interior pixels that survived both valid masks must match within the
  // double-interpolation blur.
  int checked = 0;
  long long error_sum = 0;
  for (int y = 4; y < 36; ++y) {
    for (int x = 4; x < 44; ++x) {
      if (!round.valid.at(x, y)) continue;
      error_sum += std::abs(static_cast<int>(round.pixels.at(x, y)) -
                            static_cast<int>(src.at(x, y)));
      ++checked;
    }
  }
  ASSERT_GT(checked, 200);
  // White-noise texture is the worst case for double bilinear resampling
  // (neighbouring pixels are uncorrelated); ~30 mean absolute error is the
  // expected blur floor, anything wildly above it means misregistration.
  EXPECT_LT(static_cast<double>(error_sum) / checked, 36.0);
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, WarpRoundTrip,
    ::testing::Values(geo::mat3::translation(5.0, 3.0),
                      geo::mat3::rotation(0.15),
                      geo::mat3::scaling(1.2, 1.2),
                      geo::mat3::translation(-4.0, 2.0) *
                          geo::mat3::rotation(-0.3)));

// ---------------------------------------------------------------------------
// RANSAC seed sweep: the recovered model must be stable across seeds.
// ---------------------------------------------------------------------------

class RansacSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RansacSeedSweep, ModelIndependentOfSeed) {
  const geo::mat3 truth = geo::mat3::translation(7.0, 1.0);
  rng gen(55);
  std::vector<geo::point_pair> pairs;
  for (int i = 0; i < 30; ++i) {
    const geo::vec2 p{gen.uniform_real(0, 128), gen.uniform_real(0, 96)};
    pairs.push_back({p, truth.apply(p)});
  }
  for (int i = 0; i < 10; ++i) {
    pairs.push_back({{gen.uniform_real(0, 128), gen.uniform_real(0, 96)},
                     {gen.uniform_real(0, 128), gen.uniform_real(0, 96)}});
  }
  geo::ransac_params params;
  params.min_inliers = 25;
  const auto fit = geo::ransac_homography(pairs, params, GetParam());
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->model.projective_distance(truth), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RansacSeedSweep,
                         ::testing::Values(1u, 7u, 99u, 12345u));

// ---------------------------------------------------------------------------
// Pipeline fuzz: arbitrary (sane) configurations must never crash, and the
// frame accounting invariant must always hold.
// ---------------------------------------------------------------------------

struct fuzz_case {
  app::algorithm alg;
  double rfd;
  double kds;
  int sm;
  int discard_limit;
  std::uint64_t seed;
};

// Printed into the test name.  Without it gtest dumps the raw bytes, padding
// included, and the names change from run to run.
void PrintTo(const fuzz_case& fuzz, std::ostream* os) {
  *os << app::algorithm_name(fuzz.alg) << " rfd=" << fuzz.rfd
      << " kds=" << fuzz.kds << " sm=" << fuzz.sm
      << " discard=" << fuzz.discard_limit << " seed=" << fuzz.seed;
}

class PipelineFuzz : public ::testing::TestWithParam<fuzz_case> {};

TEST_P(PipelineFuzz, AccountingInvariantHolds) {
  const auto& fuzz = GetParam();
  static const auto source = video::make_input(video::input_id::input1, 10);
  app::pipeline_config config;
  config.approx.alg = fuzz.alg;
  config.approx.rfd_drop_fraction = fuzz.rfd;
  config.approx.kds_keypoint_fraction = fuzz.kds;
  config.approx.sm_max_distance = fuzz.sm;
  config.discard_limit = fuzz.discard_limit;
  config.seed = fuzz.seed;
  const auto result = app::summarize(*source, config);
  EXPECT_EQ(result.stats.frames_stitched + result.stats.frames_discarded +
                result.stats.frames_dropped_rfd,
            result.stats.frames_total);
  EXPECT_EQ(result.placements.size(),
            static_cast<std::size_t>(result.stats.frames_stitched));
  EXPECT_EQ(result.mini_panoramas.size(), result.panorama_bounds.size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineFuzz,
    ::testing::Values(fuzz_case{app::algorithm::vs, 0.0, 1.0, 30, 2, 1},
                      fuzz_case{app::algorithm::vs_rfd, 0.5, 1.0, 30, 0, 2},
                      fuzz_case{app::algorithm::vs_rfd, 1.0, 1.0, 30, 2, 3},
                      fuzz_case{app::algorithm::vs_kds, 0.0, 0.05, 30, 1, 4},
                      fuzz_case{app::algorithm::vs_kds, 0.0, 0.9, 30, 5, 5},
                      fuzz_case{app::algorithm::vs_sm, 0.0, 1.0, 1, 2, 6},
                      fuzz_case{app::algorithm::vs_sm, 0.0, 1.0, 256, 2, 7}));

// ---------------------------------------------------------------------------
// Quality metric properties.
// ---------------------------------------------------------------------------

class MetricThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetricThresholdSweep, NormMonotoneInThreshold) {
  // Raising the pixel threshold can only lower (or keep) the norm.
  img::image_u8 golden(24, 24, 1, 120);
  img::image_u8 faulty(24, 24, 1, 120);
  rng gen(11);
  for (int i = 0; i < 40; ++i) {
    faulty.at(static_cast<int>(gen.uniform(24)),
              static_cast<int>(gen.uniform(24))) =
        static_cast<std::uint8_t>(gen.uniform(256));
  }
  const int threshold = GetParam();
  const double at_threshold =
      quality::relative_l2_norm(golden, faulty, threshold);
  const double above = quality::relative_l2_norm(golden, faulty, threshold + 32);
  EXPECT_GE(at_threshold, above);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MetricThresholdSweep,
                         ::testing::Values(0, 32, 64, 128, 192));

// ---------------------------------------------------------------------------
// Fault determinism across the approximation variants.
// ---------------------------------------------------------------------------

class VariantDeterminism : public ::testing::TestWithParam<app::algorithm> {};

TEST_P(VariantDeterminism, SummarizeIsPure) {
  static const auto source = video::make_input(video::input_id::input2, 8);
  app::pipeline_config config;
  config.approx.alg = GetParam();
  const auto a = app::summarize(*source, config);
  const auto b = app::summarize(*source, config);
  EXPECT_EQ(a.panorama, b.panorama);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantDeterminism,
                         ::testing::Values(app::algorithm::vs,
                                           app::algorithm::vs_rfd,
                                           app::algorithm::vs_kds,
                                           app::algorithm::vs_sm));

}  // namespace
}  // namespace vs
