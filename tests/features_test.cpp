#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "features/fast.h"
#include "features/fast_simd.h"
#include "features/orb.h"
#include "image/draw.h"
#include "rt/instrument.h"

namespace vs::feat {
namespace {

// A frame with a single bright square: its corners are FAST corners.
img::image_u8 square_frame(int w = 64, int h = 64) {
  img::image_u8 im(w, h, 1, 60);
  img::fill_rect(im, w / 2 - 8, h / 2 - 8, 16, 16, img::color{220, 220, 220});
  return im;
}

TEST(Fast, FlatImageHasNoCorners) {
  img::image_u8 flat(64, 64, 1, 128);
  EXPECT_TRUE(fast_detect(flat, fast_params{}).empty());
}

TEST(Fast, DetectsSquareCorners) {
  fast_params params;
  params.border = 8;
  const auto keypoints = fast_detect(square_frame(), params);
  ASSERT_FALSE(keypoints.empty());
  // Every detection must be near one of the four square corners.
  for (const auto& kp : keypoints) {
    const double dx = std::min(std::abs(kp.x - 24.0), std::abs(kp.x - 39.0));
    const double dy = std::min(std::abs(kp.y - 24.0), std::abs(kp.y - 39.0));
    EXPECT_LT(dx, 4.0);
    EXPECT_LT(dy, 4.0);
  }
}

TEST(Fast, ScoreZeroOnFlat) {
  img::image_u8 flat(16, 16, 1, 90);
  EXPECT_EQ(fast_score(flat, 8, 8, 15), 0);
}

TEST(Fast, ScorePositiveOnIsolatedDot) {
  img::image_u8 im(16, 16, 1, 50);
  img::fill_rect(im, 7, 7, 2, 2, img::color{250, 250, 250});
  EXPECT_GT(fast_score(im, 7, 7, 15), 0);
}

TEST(Fast, HigherThresholdDetectsFewer) {
  img::image_u8 im = square_frame();
  fast_params loose;
  loose.threshold = 8;
  loose.border = 8;
  fast_params strict = loose;
  strict.threshold = 120;
  EXPECT_GE(fast_detect(im, loose).size(), fast_detect(im, strict).size());
}

TEST(Fast, MaxKeypointsCaps) {
  // Dense impulse grid: many corners.
  img::image_u8 im(96, 96, 1, 40);
  for (int y = 12; y < 84; y += 6) {
    for (int x = 12; x < 84; x += 6) {
      img::fill_rect(im, x, y, 2, 2, img::color{240, 240, 240});
    }
  }
  fast_params params;
  params.border = 8;
  params.max_keypoints = 10;
  const auto keypoints = fast_detect(im, params);
  EXPECT_LE(keypoints.size(), 10u);
  EXPECT_GE(keypoints.size(), 5u);
}

TEST(Fast, ResultsSortedByScore) {
  img::image_u8 im(96, 96, 1, 40);
  for (int y = 12; y < 84; y += 8) {
    for (int x = 12; x < 84; x += 8) {
      img::fill_rect(im, x, y, 2, 2, img::color{240, 240, 240});
    }
  }
  fast_params params;
  params.border = 8;
  const auto keypoints = fast_detect(im, params);
  for (std::size_t i = 1; i < keypoints.size(); ++i) {
    EXPECT_GE(keypoints[i - 1].score, keypoints[i].score);
  }
}

TEST(Fast, RespectsBorder) {
  img::image_u8 im(64, 64, 1, 40);
  img::fill_rect(im, 2, 2, 2, 2, img::color{240, 240, 240});  // near edge
  fast_params params;
  params.border = 10;
  EXPECT_TRUE(fast_detect(im, params).empty());
}

TEST(Fast, GrayOnlyInput) {
  img::image_u8 rgb(32, 32, 3);
  EXPECT_THROW((void)fast_detect(rgb, fast_params{}), invalid_argument);
}

TEST(Fast, NonMaxSuppressionKeepsTheEarliestOfATie) {
  // Isolated bright pixels on a flat background: no other bright pixel lies
  // on any one's radius-3 circle, so each scores 16 * (190 - threshold) and
  // every neighbouring pair ties.  A 2x2 block ties horizontally, vertically
  // and diagonally; an anti-diagonal pair ties across the row boundary
  // (the later pixel's tied neighbour sits above and to its right).
  img::image_u8 im(64, 64, 1, 60);
  img::fill_rect(im, 20, 20, 2, 2, img::color{250, 250, 250});
  im.at(41, 40) = 250;
  im.at(40, 41) = 250;
  fast_params params;
  params.border = 8;
  const std::pair<int, int> tied[] = {{20, 20}, {21, 20}, {20, 21},
                                      {21, 21}, {41, 40}, {40, 41}};
  for (const auto& [x, y] : tied) {
    ASSERT_EQ(fast_score(im, x, y, params.threshold),
              16 * (190 - params.threshold))
        << "(" << x << ", " << y << ")";
  }

  const auto expect_earliest = [](const std::vector<keypoint>& found,
                                  const std::string& lane) {
    ASSERT_EQ(found.size(), 2u) << lane;
    EXPECT_EQ(found[0].x, 20.0f) << lane;
    EXPECT_EQ(found[0].y, 20.0f) << lane;
    EXPECT_EQ(found[1].x, 41.0f) << lane;
    EXPECT_EQ(found[1].y, 40.0f) << lane;
  };
  {
    rt::session session;
    expect_earliest(fast_detect(im, params), "instrumented");
  }
  for (const unsigned width : {1u, 4u}) {
    core::thread_pool::set_global_threads(width);
    expect_earliest(fast_detect(im, params),
                    "clean, pool width " + std::to_string(width));
  }
  core::thread_pool::set_global_threads(0);
}

// ---------------------------------------------------------------------------
// FAST score rows: every SIMD tier the host runs against fast_score.
// ---------------------------------------------------------------------------

/// Runs the row kernel of every tier up to the host's best on every
/// scorable row of `im` and compares each column with fast_score.
void expect_rows_match_fast_score(const img::image_u8& im, int threshold,
                                  const std::string& what) {
  const int w = im.width();
  std::vector<std::int16_t> row(static_cast<std::size_t>(w));
  for (int l = 0; l <= static_cast<int>(core::simd::detected()); ++l) {
    const auto level = static_cast<core::simd::level>(l);
    const simd::score_row_fn score_row = simd::select_score_row(level);
    for (int y = 3; y < im.height() - 3; ++y) {
      std::fill(row.begin(), row.end(), std::int16_t{-1});
      score_row(im, y, 3, w - 3, threshold, row.data());
      for (int x = 3; x < w - 3; ++x) {
        ASSERT_EQ(row[static_cast<std::size_t>(x)],
                  fast_score(im, x, y, threshold))
            << what << ", simd " << core::simd::level_name(level) << ", t "
            << threshold << ", at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(FastScoreRow, MatchesFastScoreOnNoiseAtEveryTier) {
  rng gen(11);
  // Scored runs of 1, 7, 8, 13, 16, 17, 24 and 58 columns: narrower than
  // either vector, exact multiples, and ragged tails.
  for (const int width : {7, 13, 14, 19, 22, 23, 30, 64}) {
    img::image_u8 im(width, 12, 1);
    for (std::size_t i = 0; i < im.size(); ++i) {
      im[i] = static_cast<std::uint8_t>(gen.uniform(256));
    }
    for (const int threshold : {1, 10, 40, 128, 255, 256, 300}) {
      expect_rows_match_fast_score(im, threshold,
                                   "noise w" + std::to_string(width));
    }
  }
}

TEST(FastScoreRow, ArcsAtEveryStartIncludingWrapAround) {
  // One arc of `length` circle pixels from index `start` (so arcs with
  // start + length > 16 wrap from 15 to 0), brighter or darker than the
  // center by a per-index amount; placed at several columns of a 40-wide
  // row so it lands in different lanes and in the vector tail.
  constexpr int threshold = 20;
  for (int start = 0; start < 16; ++start) {
    for (int length = 8; length <= 16; ++length) {
      for (const int sign : {1, -1}) {
        for (const int cx : {3, 10, 25, 36}) {
          img::image_u8 im(40, 7, 1, 128);
          for (int k = 0; k < length; ++k) {
            const int i = (start + k) % 16;
            im.at(cx + simd::circle_dx[i], 3 + simd::circle_dy[i]) =
                static_cast<std::uint8_t>(128 + sign * (threshold + 3 * i));
          }
          const std::string what = "arc start " + std::to_string(start) +
                                   " length " + std::to_string(length) +
                                   " sign " + std::to_string(sign) +
                                   " at x " + std::to_string(cx);
          // Only a 9-pixel arc makes a corner.
          EXPECT_EQ(fast_score(im, cx, 3, threshold) > 0, length >= 9)
              << what;
          expect_rows_match_fast_score(im, threshold, what);
        }
      }
    }
  }
}

TEST(Hamming, IdenticalIsZero) {
  descriptor d;
  d.bits = {0x123456789abcdef0ULL, 1, 2, 3};
  EXPECT_EQ(hamming_distance(d, d), 0);
}

TEST(Hamming, ComplementIs256) {
  descriptor a;
  descriptor b;
  for (std::size_t i = 0; i < 4; ++i) {
    a.bits[i] = 0;
    b.bits[i] = ~0ULL;
  }
  EXPECT_EQ(hamming_distance(a, b), 256);
}

TEST(Hamming, CountsSingleBit) {
  descriptor a;
  descriptor b = a;
  b.bits[2] ^= 1ULL << 17;
  EXPECT_EQ(hamming_distance(a, b), 1);
}

TEST(Hamming, BoundedEarlyExit) {
  descriptor a;
  descriptor b;
  b.bits[0] = ~0ULL;  // 64 differing bits in the first word
  EXPECT_EQ(hamming_distance_bounded(a, b, 10), 11);
  EXPECT_EQ(hamming_distance_bounded(a, b, 64), 64);
  EXPECT_EQ(hamming_distance_bounded(a, a, 10), 0);
}

TEST(Orb, OrientationPointsTowardBrightSide) {
  // Patch bright on the right: centroid is at positive x, angle ~ 0.
  img::image_u8 im(32, 32, 1, 10);
  for (int y = 0; y < 32; ++y) {
    for (int x = 17; x < 32; ++x) im.at(x, y) = 200;
  }
  const float angle = intensity_centroid_angle(im, 16, 16, 7);
  EXPECT_NEAR(angle, 0.0f, 0.2f);
}

TEST(Orb, OrientationRotatesWithContent) {
  // Bright on top (negative y): angle ~ -pi/2.
  img::image_u8 im(32, 32, 1, 10);
  for (int y = 0; y < 15; ++y) {
    for (int x = 0; x < 32; ++x) im.at(x, y) = 200;
  }
  const float angle = intensity_centroid_angle(im, 16, 16, 7);
  EXPECT_NEAR(angle, -static_cast<float>(M_PI) / 2.0f, 0.2f);
}

TEST(Orb, DescriptorDeterministic) {
  const auto im = square_frame();
  keypoint kp{32.0f, 32.0f, 1.0f, 0.3f};
  EXPECT_EQ(orb_describe_one(im, kp, 7), orb_describe_one(im, kp, 7));
}

TEST(Orb, DescriptorDiffersAcrossContent) {
  // Two different textures inside the sampling patch.
  img::image_u8 a(64, 64, 1);
  img::image_u8 b(64, 64, 1);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      a.at(x, y) = static_cast<std::uint8_t>((x * 37 + y * 11) % 256);
      b.at(x, y) = static_cast<std::uint8_t>((x * 5 + y * 53) % 256);
    }
  }
  keypoint kp{32.0f, 32.0f, 1.0f, 0.0f};
  const auto da = orb_describe_one(a, kp, 7);
  const auto db = orb_describe_one(b, kp, 7);
  EXPECT_GT(hamming_distance(da, db), 40);
}

TEST(Orb, DescriptorReadsItsOwnPatchRadius) {
  // Two frames that differ only on the ring 8-9 px (Chebyshev) from the
  // keypoint.  At angle 0 the pattern is unrotated, so a radius-r pattern
  // samples exactly the square of half-size r.
  img::image_u8 a(64, 64, 1);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      a.at(x, y) = static_cast<std::uint8_t>((x * 37 + y * 11) % 256);
    }
  }
  img::image_u8 b = a;
  for (int y = 32 - 9; y <= 32 + 9; ++y) {
    for (int x = 32 - 9; x <= 32 + 9; ++x) {
      if (std::max(std::abs(x - 32), std::abs(y - 32)) >= 8) {
        b.at(x, y) = static_cast<std::uint8_t>(255 - a.at(x, y));
      }
    }
  }
  const keypoint kp{32.0f, 32.0f, 1.0f, 0.0f};
  // Radius 7 first: it never reaches the ring ...
  EXPECT_EQ(orb_describe_one(a, kp, 7), orb_describe_one(b, kp, 7));
  // ... and a later radius 9 in the same process must still read it.
  EXPECT_NE(orb_describe_one(a, kp, 9), orb_describe_one(b, kp, 9));
}

TEST(Orb, ExtractProducesDescriptorPerKeypoint) {
  orb_params params;
  params.fast.border = 18;
  const auto features = orb_extract(square_frame(96, 96), params);
  EXPECT_EQ(features.keypoints.size(), features.descriptors.size());
}

TEST(Orb, ExtractOnTranslatedImageMatchesDescriptors) {
  // The same physical corner viewed in two frames shifted by 4 px must
  // produce near-identical descriptors (the property matching relies on).
  img::image_u8 a(96, 96, 1, 60);
  img::fill_rect(a, 40, 40, 14, 14, img::color{220, 220, 220});
  img::image_u8 b(96, 96, 1, 60);
  img::fill_rect(b, 44, 40, 14, 14, img::color{220, 220, 220});
  orb_params params;
  const auto fa = orb_extract(a, params);
  const auto fb = orb_extract(b, params);
  ASSERT_FALSE(fa.empty());
  ASSERT_FALSE(fb.empty());
  int best = 257;
  for (const auto& da : fa.descriptors) {
    for (const auto& db : fb.descriptors) {
      best = std::min(best, hamming_distance(da, db));
    }
  }
  EXPECT_LT(best, 40);
}

TEST(Orb, GrayOnlyInput) {
  img::image_u8 rgb(64, 64, 3);
  EXPECT_THROW((void)orb_extract(rgb, orb_params{}), invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-keypoint scoring verification (the extraction stages' replication
// contract).
// ---------------------------------------------------------------------------

TEST(OrbVerify, AcceptsAGenuineExtraction) {
  const img::image_u8 frame = square_frame(96, 96);
  const orb_params params;
  const auto features = orb_extract(frame, params);
  ASSERT_FALSE(features.empty());
  EXPECT_TRUE(orb_verify_features(frame, features, params));
}

TEST(OrbVerify, EmptyExtractionOfAFlatFrameVerifies) {
  const img::image_u8 flat(64, 64, 1, 128);
  const orb_params params;
  const auto features = orb_extract(flat, params);
  EXPECT_TRUE(features.empty());
  EXPECT_TRUE(orb_verify_features(flat, features, params));
}

TEST(OrbVerify, CatchesAnyTamperedStoredField) {
  const img::image_u8 frame = square_frame(96, 96);
  const orb_params params;
  const auto features = orb_extract(frame, params);
  ASSERT_FALSE(features.empty());

  // Every field a register fault can silently perturb diverges: the score
  // is re-derived at the stored coordinates, so corrupt positions mismatch
  // exactly like corrupt scores.
  auto tampered = features;
  tampered.keypoints[0].x += 1.0f;
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  tampered = features;
  tampered.keypoints[0].x += 0.5f;  // fractional: FAST never emits these
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  tampered = features;
  tampered.keypoints[0].score += 1.0f;
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  tampered = features;
  tampered.keypoints[0].angle += 0.5f;
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  tampered = features;
  tampered.descriptors[0].bits[1] ^= 1ULL << 13;
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  // A coordinate blown out of the detection window must be rejected by the
  // bounds pre-check, not chased into an out-of-range load.
  tampered = features;
  tampered.keypoints[0].y = 1.0e6f;
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));

  // A keypoint/descriptor count mismatch can only come from a fault.
  tampered = features;
  tampered.descriptors.pop_back();
  EXPECT_FALSE(orb_verify_features(frame, tampered, params));
}

}  // namespace
}  // namespace vs::feat
