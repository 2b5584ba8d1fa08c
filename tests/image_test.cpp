#include <gtest/gtest.h>
#include <cmath>

#include <string>

#include "core/error.h"
#include "core/rng.h"
#include "core/simd.h"
#include "image/blur_simd.h"
#include "image/image.h"
#include "rt/instrument.h"
#include "image/pixel.h"

namespace vs::img {
namespace {

TEST(Image, DefaultIsEmpty) {
  image_u8 im;
  EXPECT_TRUE(im.empty());
  EXPECT_EQ(im.width(), 0);
  EXPECT_EQ(im.height(), 0);
}

TEST(Image, ConstructionZeroInitializes) {
  image_u8 im(4, 3, 1);
  EXPECT_EQ(im.size(), 12u);
  for (std::size_t i = 0; i < im.size(); ++i) EXPECT_EQ(im[i], 0);
}

TEST(Image, ConstructionWithFill) {
  image_u8 im(2, 2, 3, 7);
  for (std::size_t i = 0; i < im.size(); ++i) EXPECT_EQ(im[i], 7);
}

TEST(Image, RejectsBadChannelCount) {
  EXPECT_THROW(image_u8(2, 2, 2), invalid_argument);
  EXPECT_THROW(image_u8(-1, 2, 1), invalid_argument);
}

TEST(Image, AtReadsAndWritesInterleaved) {
  image_u8 im(3, 2, 3);
  im.at(2, 1, 1) = 99;
  EXPECT_EQ(im.at(2, 1, 1), 99);
  EXPECT_EQ(im.data()[im.offset(2, 1, 1)], 99);
}

TEST(Image, InBounds) {
  image_u8 im(3, 2, 1);
  EXPECT_TRUE(im.in_bounds(0, 0));
  EXPECT_TRUE(im.in_bounds(2, 1));
  EXPECT_FALSE(im.in_bounds(3, 1));
  EXPECT_FALSE(im.in_bounds(0, 2));
  EXPECT_FALSE(im.in_bounds(-1, 0));
}

TEST(Image, SampleClampedAtEdges) {
  image_u8 im(2, 2, 1);
  im.at(0, 0) = 10;
  im.at(1, 1) = 20;
  EXPECT_EQ(im.sample_clamped(-5, -5), 10);
  EXPECT_EQ(im.sample_clamped(9, 9), 20);
}

TEST(Image, EqualityIsDeep) {
  image_u8 a(2, 2, 1);
  image_u8 b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.at(1, 1) = 1;
  EXPECT_FALSE(a == b);
}

TEST(Image, ToGrayLumaWeights) {
  image_u8 rgb(1, 1, 3);
  rgb.at(0, 0, 0) = 255;  // pure red
  const image_u8 gray = to_gray(rgb);
  EXPECT_NEAR(gray.at(0, 0), 76, 1);  // 0.299 * 255
}

TEST(Image, ToGrayOnGrayIsIdentity) {
  image_u8 gray(2, 2, 1, 42);
  EXPECT_EQ(to_gray(gray), gray);
}

TEST(Image, GrayToRgbReplicates) {
  image_u8 gray(1, 1, 1, 42);
  const image_u8 rgb = gray_to_rgb(gray);
  EXPECT_EQ(rgb.channels(), 3);
  EXPECT_EQ(rgb.at(0, 0, 0), 42);
  EXPECT_EQ(rgb.at(0, 0, 1), 42);
  EXPECT_EQ(rgb.at(0, 0, 2), 42);
}

TEST(Image, DownscaleByTwo) {
  image_u8 im(4, 4, 1);
  im.at(0, 0) = 10;
  im.at(2, 0) = 20;
  const image_u8 half = downscale(im, 2);
  EXPECT_EQ(half.width(), 2);
  EXPECT_EQ(half.height(), 2);
  EXPECT_EQ(half.at(0, 0), 10);
  EXPECT_EQ(half.at(1, 0), 20);
}

TEST(Image, DownscaleByOneIsIdentity) {
  image_u8 im(3, 3, 1, 5);
  EXPECT_EQ(downscale(im, 1), im);
}

TEST(Image, DownscaleRejectsNonPositiveFactor) {
  image_u8 im(3, 3, 1);
  EXPECT_THROW(downscale(im, 0), invalid_argument);
}

TEST(Image, BoxBlurFlatStaysFlat) {
  image_u8 im(5, 5, 1, 100);
  const image_u8 blurred = box_blur3(im);
  for (std::size_t i = 0; i < blurred.size(); ++i) {
    EXPECT_EQ(blurred[i], 100);
  }
}

TEST(Image, BoxBlurSpreadsImpulse) {
  image_u8 im(5, 5, 1);
  im.at(2, 2) = 90;
  const image_u8 blurred = box_blur3(im);
  EXPECT_EQ(blurred.at(2, 2), 10);  // 90/9
  EXPECT_EQ(blurred.at(1, 1), 10);
  EXPECT_EQ(blurred.at(0, 0), 0);
}

// The 3x3 box blur written out: every neighbour clamped to the image.
image_u8 naive_box_blur3(const image_u8& src) {
  image_u8 out(src.width(), src.height(), 1);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      int sum = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          sum += src.sample_clamped(x + dx, y + dy);
        }
      }
      out.at(x, y) = static_cast<std::uint8_t>((sum + 4) / 9);
    }
  }
  return out;
}

TEST(Image, BoxBlurMatchesNaiveOnBothLanesAtEveryTier) {
  const core::simd::level saved = core::simd::requested();
  rng gen(23);
  // Single rows and columns, the smallest images with and without an
  // interior, interiors narrower than an SSE4 or AVX2 block, exact block
  // multiples, and ragged tails.
  const int sizes[][2] = {{1, 1},  {1, 9},  {9, 1},   {1, 40}, {40, 1},
                          {2, 2},  {3, 3},  {2, 7},   {7, 2},  {5, 5},
                          {9, 4},  {10, 3}, {17, 5},  {18, 6}, {19, 7},
                          {33, 9}, {47, 11}, {128, 96}};
  for (const auto& size : sizes) {
    image_u8 im(size[0], size[1], 1);
    for (std::size_t i = 0; i < im.size(); ++i) {
      // Mostly noise, with saturated runs so the sums reach 9 * 255.
      im[i] = gen.uniform(4) == 0
                  ? std::uint8_t{255}
                  : static_cast<std::uint8_t>(gen.uniform(256));
    }
    const image_u8 expected = naive_box_blur3(im);
    const std::string what =
        std::to_string(size[0]) + "x" + std::to_string(size[1]);
    {
      rt::session session;  // the instrumented lane's reference blur
      EXPECT_EQ(box_blur3(im), expected) << what << " instrumented";
    }
    for (int l = 0; l <= static_cast<int>(core::simd::detected()); ++l) {
      const auto level = static_cast<core::simd::level>(l);
      core::simd::set_level(level);
      EXPECT_EQ(box_blur3(im), expected)
          << what << " clean, simd " << core::simd::level_name(level);
    }
  }
  core::simd::set_level(saved);
}

TEST(Image, BoxBlurDivideByNineMultiplyHighIsExact) {
  // Every dividend the blur can produce: (sum of nine bytes) + 4.
  for (std::uint32_t n = 0; n <= simd::div9_max; ++n) {
    ASSERT_EQ(simd::div9(n), n / 9) << n;
  }
  static_assert(simd::div9_max == 2299);
  // The multiplier is a 16-bit lane constant.
  static_assert(simd::div9_multiplier <= 0xffff);
}

TEST(Image, MeanAbsDiff) {
  image_u8 a(2, 1, 1);
  image_u8 b(2, 1, 1);
  a.at(0, 0) = 10;
  b.at(1, 0) = 30;
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 20.0);
}

TEST(Image, MeanAbsDiffShapeMismatchThrows) {
  image_u8 a(2, 1, 1);
  image_u8 b(1, 2, 1);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 0.0);  // same element count: legal
  image_u8 c(3, 1, 1);
  EXPECT_THROW((void)mean_abs_diff(a, c), invalid_argument);
}

TEST(Image, CountDiffPixels) {
  image_u8 a(3, 1, 1);
  image_u8 b(3, 1, 1);
  b.at(0, 0) = 200;  // above threshold
  b.at(1, 0) = 5;    // below threshold
  EXPECT_EQ(count_diff_pixels(a, b, 128), 1u);
  EXPECT_EQ(count_diff_pixels(a, b, 1), 2u);
}

struct saturate_case {
  double in;
  std::uint8_t expected;
};

// Printed into the test name.  Without it gtest dumps the raw bytes, padding
// included, and the names change from run to run.
void PrintTo(const saturate_case& c, std::ostream* os) {
  *os << c.in << " to " << static_cast<int>(c.expected);
}

class SaturateU8 : public ::testing::TestWithParam<saturate_case> {};

TEST_P(SaturateU8, ClampsAndRounds) {
  EXPECT_EQ(saturate_u8(GetParam().in), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Values, SaturateU8,
    ::testing::Values(saturate_case{-1.0, 0}, saturate_case{-1e300, 0},
                      saturate_case{0.0, 0}, saturate_case{0.4, 0},
                      saturate_case{0.6, 1}, saturate_case{127.5, 128},
                      saturate_case{255.0, 255}, saturate_case{255.4, 255},
                      saturate_case{300.0, 255}, saturate_case{1e300, 255},
                      saturate_case{std::nan(""), 0}));

TEST(SaturateU8, IntOverloadClamps) {
  EXPECT_EQ(saturate_u8(-5), 0);
  EXPECT_EQ(saturate_u8(256), 255);
  EXPECT_EQ(saturate_u8(100), 100);
}

TEST(AbsDiffU8, Symmetric) {
  EXPECT_EQ(absdiff_u8(10, 250), 240);
  EXPECT_EQ(absdiff_u8(250, 10), 240);
  EXPECT_EQ(absdiff_u8(7, 7), 0);
}

}  // namespace
}  // namespace vs::img
