#include <gtest/gtest.h>
#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "quality/metric.h"
#include "quality/sdc.h"

namespace vs::quality {
namespace {

img::image_u8 textured(int w, int h, std::uint64_t salt = 0) {
  // Hash-based texture: aperiodic, so translation searches have a unique
  // optimum (a linear ramp pattern would alias).
  img::image_u8 im(w, h, 1);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint64_t state = salt * 1315423911ull +
                            static_cast<std::uint64_t>(y) * 2654435761ull +
                            static_cast<std::uint64_t>(x);
      im.at(x, y) = static_cast<std::uint8_t>(splitmix64(state) % 200 + 30);
    }
  }
  return im;
}

TEST(Metric, IdenticalImagesScoreZero) {
  const auto im = textured(32, 24);
  const auto result = compare_images(im, im);
  EXPECT_DOUBLE_EQ(result.relative_l2_norm, 0.0);
  ASSERT_TRUE(result.ed.has_value());
  EXPECT_EQ(*result.ed, 0);
  EXPECT_FALSE(result.egregious);
}

TEST(Metric, SmallPixelDifferencesBelowThresholdIgnored) {
  const auto golden = textured(32, 24);
  auto faulty = golden;
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    faulty[i] = static_cast<std::uint8_t>(faulty[i] + 20);  // all < 128 diff
  }
  EXPECT_DOUBLE_EQ(relative_l2_norm(golden, faulty, 128), 0.0);
}

TEST(Metric, LargeDifferencesCounted) {
  const auto golden = textured(16, 16);
  auto faulty = golden;
  // Push the pixel to whichever extreme is >128 away from its value.
  faulty.at(5, 5) = golden.at(5, 5) < 128 ? 255 : 0;
  EXPECT_GT(relative_l2_norm(golden, faulty, 128), 0.0);
}

TEST(Metric, ThresholdIsStrict) {
  img::image_u8 golden(2, 1, 1, 0);
  img::image_u8 faulty(2, 1, 1, 0);
  faulty.at(0, 0) = 128;  // exactly the threshold: not counted
  EXPECT_DOUBLE_EQ(relative_l2_norm(golden, faulty, 128), 0.0);
  faulty.at(0, 0) = 129;
  EXPECT_GT(relative_l2_norm(golden, faulty, 128), 0.0);
}

TEST(Metric, EdIsFloorOfNorm) {
  // Construct a case with a known norm: golden all 100, faulty differs in
  // k pixels by 255 -> norm = 100 * sqrt(k * 255^2) / sqrt(n * 100^2).
  img::image_u8 golden(10, 10, 1, 100);
  auto faulty = golden;
  for (int i = 0; i < 3; ++i) faulty.at(i, 0) = 0;  // diff 100 < 128: ignored
  auto result = compare_images(golden, faulty, metric_config{
                                                   .align_search_radius = 0});
  EXPECT_EQ(*result.ed, 0);

  faulty = golden;
  faulty.at(0, 0) = 255;
  faulty.at(1, 0) = 255;  // two diffs of 155
  const double expected =
      100.0 * std::sqrt(2.0 * 155 * 155) / std::sqrt(100.0 * 100 * 100);
  result = compare_images(golden, faulty,
                          metric_config{.align_search_radius = 0});
  EXPECT_NEAR(result.relative_l2_norm, expected, 1e-9);
  EXPECT_EQ(*result.ed, static_cast<int>(expected));
}

TEST(Metric, EgregiousAboveHundred) {
  img::image_u8 golden(4, 4, 1, 10);
  img::image_u8 faulty(4, 4, 1, 240);
  const auto result = compare_images(golden, faulty,
                                     metric_config{.align_search_radius = 0});
  EXPECT_TRUE(result.egregious);
  EXPECT_FALSE(result.ed.has_value());
}

TEST(Metric, AlignmentRemovesPureTranslation) {
  const auto golden = textured(48, 32);
  // Faulty = golden shifted by (3, 2): hugely different pixel-wise, but the
  // corrective alignment must recover it almost perfectly.
  img::image_u8 faulty(48, 32, 1);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 48; ++x) {
      faulty.at(x, y) = golden.sample_clamped(x + 3, y + 2);
    }
  }
  const auto unaligned = compare_images(golden, faulty,
                                        metric_config{.align_search_radius = 0});
  const auto aligned = compare_images(golden, faulty);
  EXPECT_LT(aligned.relative_l2_norm, unaligned.relative_l2_norm);
  // f(x) == g(x + 3): sampling f at x - 3 realigns it with g.
  EXPECT_EQ(aligned.align_dx, -3);
  EXPECT_EQ(aligned.align_dy, -2);
}

TEST(Metric, DifferentSizesArePadded) {
  const auto golden = textured(30, 20);
  const auto faulty = textured(24, 26);
  const auto result = compare_images(golden, faulty);
  EXPECT_GE(result.relative_l2_norm, 0.0);  // no throw, sane result
}

TEST(Metric, EmptyImagesCompareEqual) {
  const auto result = compare_images(img::image_u8{}, img::image_u8{});
  EXPECT_EQ(*result.ed, 0);
}

TEST(Metric, PadToExtends) {
  const auto im = textured(4, 3);
  const auto padded = pad_to(im, 6, 5);
  EXPECT_EQ(padded.width(), 6);
  EXPECT_EQ(padded.height(), 5);
  EXPECT_EQ(padded.at(2, 2), im.at(2, 2));
  EXPECT_EQ(padded.at(5, 4), 0);
}

TEST(Metric, PadToRejectsShrinking) {
  EXPECT_THROW((void)pad_to(textured(4, 4), 3, 4), invalid_argument);
}

TEST(Metric, AbsdiffImage) {
  img::image_u8 a(2, 1, 1, 10);
  img::image_u8 b(2, 1, 1, 250);
  const auto diff = absdiff_image(a, b);
  EXPECT_EQ(diff.at(0, 0), 240);
}

TEST(Metric, ThresholdDiffImageBinarizes) {
  img::image_u8 a(2, 1, 1, 0);
  img::image_u8 b(2, 1, 1, 0);
  b.at(0, 0) = 200;
  b.at(1, 0) = 50;
  const auto t = threshold_diff_image(a, b, 128);
  EXPECT_EQ(t.at(0, 0), 255);
  EXPECT_EQ(t.at(1, 0), 0);
}

TEST(Metric, RelativeNormShapeMismatchThrows) {
  EXPECT_THROW((void)relative_l2_norm(textured(4, 4), textured(5, 4), 128),
               invalid_argument);
}

TEST(EdCdf, CumulativePercentages) {
  std::vector<sdc_quality> sdcs;
  for (int ed : {0, 0, 3, 7, 7, 12}) {
    quality_result q;
    q.relative_l2_norm = ed + 0.5;
    q.ed = ed;
    sdcs.push_back({q});
  }
  const auto cdf = build_ed_cdf(sdcs, 20);
  EXPECT_EQ(cdf.total_sdcs, 6u);
  EXPECT_NEAR(cdf.percent_at(0), 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(cdf.percent_at(7), 100.0 * 5 / 6, 1e-9);
  EXPECT_NEAR(cdf.percent_at(20), 100.0, 1e-9);
}

TEST(EdCdf, EgregiousSdcsNeverReachHundred) {
  std::vector<sdc_quality> sdcs;
  quality_result benign;
  benign.ed = 1;
  quality_result egregious;
  egregious.egregious = true;
  sdcs.push_back({benign});
  sdcs.push_back({egregious});
  const auto cdf = build_ed_cdf(sdcs, 10);
  EXPECT_EQ(cdf.egregious, 1u);
  EXPECT_NEAR(cdf.percent_at(10), 50.0, 1e-9);
}

TEST(EdCdf, EmptyInput) {
  const auto cdf = build_ed_cdf({}, 10);
  EXPECT_EQ(cdf.total_sdcs, 0u);
  EXPECT_DOUBLE_EQ(cdf.percent_at(5), 0.0);
}

TEST(EdCdf, NegativeMaxEdThrows) {
  EXPECT_THROW((void)build_ed_cdf({}, -1), invalid_argument);
}

}  // namespace
}  // namespace vs::quality
