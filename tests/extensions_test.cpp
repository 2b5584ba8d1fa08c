// Tests for the substrate extensions: recorded video, Harris scoring,
// pyramids / resizing, and gain-compensated compositing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <filesystem>

#include "app/config.h"
#include "core/error.h"
#include "features/harris.h"
#include "features/pyramid.h"
#include "image/draw.h"
#include "image/image_io.h"
#include "stitch/compositor.h"
#include "video/recorded.h"

namespace vs {
namespace {

// ---------------------------------------------------------------------------
// recorded_video
// ---------------------------------------------------------------------------

class RecordedVideo : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest -j runs each test in its
    // own process, and TearDown removes the whole tree.
    dir_ = ::testing::TempDir() + "/vs_recorded_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    for (int i = 0; i < 3; ++i) {
      img::image_u8 frame(16, 12, 1, static_cast<std::uint8_t>(10 * i));
      char name[64];
      std::snprintf(name, sizeof(name), "/frame_%04d.pgm", i);
      img::save_pnm(frame, dir_ + name);
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(RecordedVideo, LoadsFramesInOrder) {
  video::recorded_video clip(dir_);
  EXPECT_EQ(clip.frame_count(), 3);
  EXPECT_EQ(clip.frame_width(), 16);
  EXPECT_EQ(clip.frame(2).at(0, 0), 20);
}

TEST_F(RecordedVideo, DownsamplesOnLoad) {
  video::recorded_video clip(dir_, 2);
  EXPECT_EQ(clip.frame_width(), 8);
  EXPECT_EQ(clip.frame(0).height(), 6);
}

TEST_F(RecordedVideo, EmptyDirectoryThrows) {
  const std::string empty = dir_ + "/empty";
  std::filesystem::create_directories(empty);
  EXPECT_THROW((void)video::recorded_video(empty), io_error);
}

TEST_F(RecordedVideo, ListFindsOnlyPnm) {
  img::save_pnm(img::image_u8(4, 4, 1), dir_ + "/zz.ppm");
  std::ofstream(dir_ + "/notes.txt") << "not an image";
  const auto files = video::list_pnm_files(dir_);
  EXPECT_EQ(files.size(), 4u);  // 3 pgm + 1 ppm, txt ignored
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

// ---------------------------------------------------------------------------
// Harris response
// ---------------------------------------------------------------------------

TEST(Harris, FlatRegionScoresNearZero) {
  img::image_u8 flat(32, 32, 1, 100);
  EXPECT_NEAR(feat::harris_response(flat, 16, 16), 0.0, 1e-9);
}

TEST(Harris, EdgeScoresNegative) {
  img::image_u8 edge(32, 32, 1, 0);
  for (int y = 0; y < 32; ++y) {
    for (int x = 16; x < 32; ++x) edge.at(x, y) = 200;
  }
  EXPECT_LT(feat::harris_response(edge, 16, 16), 0.0);
}

TEST(Harris, CornerScoresPositiveAndAboveEdge) {
  img::image_u8 corner(32, 32, 1, 0);
  img::fill_rect(corner, 16, 16, 16, 16, img::color{200, 200, 200});
  const double at_corner = feat::harris_response(corner, 16, 16);
  EXPECT_GT(at_corner, 0.0);
  img::image_u8 edge(32, 32, 1, 0);
  for (int y = 0; y < 32; ++y) {
    for (int x = 16; x < 32; ++x) edge.at(x, y) = 200;
  }
  EXPECT_GT(at_corner, feat::harris_response(edge, 16, 16));
}

TEST(Harris, FastWithHarrisScoringStillDetects) {
  img::image_u8 im(64, 64, 1, 60);
  img::fill_rect(im, 24, 24, 16, 16, img::color{220, 220, 220});
  feat::fast_params params;
  params.border = 8;
  params.score = feat::corner_score::harris;
  const auto keypoints = feat::fast_detect(im, params);
  EXPECT_FALSE(keypoints.empty());
}

// ---------------------------------------------------------------------------
// Pyramid / resize
// ---------------------------------------------------------------------------

TEST(Resize, PreservesFlatContent) {
  img::image_u8 flat(20, 10, 1, 77);
  const auto resized = feat::resize_bilinear(flat, 13, 7);
  EXPECT_EQ(resized.width(), 13);
  EXPECT_EQ(resized.height(), 7);
  for (std::size_t i = 0; i < resized.size(); ++i) {
    EXPECT_NEAR(resized[i], 77, 1);
  }
}

TEST(Resize, DownThenUpApproximatesSmooth) {
  img::image_u8 ramp(32, 32, 1);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      ramp.at(x, y) = static_cast<std::uint8_t>(4 * x + 2 * y);
    }
  }
  const auto down = feat::resize_bilinear(ramp, 16, 16);
  const auto up = feat::resize_bilinear(down, 32, 32);
  EXPECT_LT(img::mean_abs_diff(ramp, up), 6.0);
}

TEST(Resize, RejectsBadArguments) {
  EXPECT_THROW((void)feat::resize_bilinear(img::image_u8{}, 4, 4),
               invalid_argument);
  EXPECT_THROW((void)feat::resize_bilinear(img::image_u8(4, 4, 1), 0, 4),
               invalid_argument);
}

TEST(Pyramid, LevelsShrinkByFactor) {
  img::image_u8 base(128, 96, 1, 50);
  feat::pyramid_params params;
  params.levels = 3;
  params.scale_factor = 2.0;
  params.min_dimension = 24;
  const auto pyramid = feat::build_pyramid(base, params);
  ASSERT_EQ(pyramid.size(), 3u);
  EXPECT_EQ(pyramid[0].image.width(), 128);
  EXPECT_EQ(pyramid[1].image.width(), 64);
  EXPECT_EQ(pyramid[2].image.width(), 32);
  EXPECT_NEAR(pyramid[2].scale, 4.0, 1e-9);
}

TEST(Pyramid, StopsAtMinDimension) {
  img::image_u8 base(100, 100, 1);
  feat::pyramid_params params;
  params.levels = 10;
  params.scale_factor = 2.0;
  params.min_dimension = 40;
  const auto pyramid = feat::build_pyramid(base, params);
  EXPECT_EQ(pyramid.size(), 2u);  // 100, 50; 25 < 40 stops
}

TEST(Pyramid, RejectsBadParams) {
  img::image_u8 base(64, 64, 1);
  feat::pyramid_params params;
  params.levels = 0;
  EXPECT_THROW((void)feat::build_pyramid(base, params), invalid_argument);
  params.levels = 2;
  params.scale_factor = 1.0;
  EXPECT_THROW((void)feat::build_pyramid(base, params), invalid_argument);
}

TEST(Pyramid, MultiScaleExtractCoversAllLevels) {
  // Corner-rich scene: multi-scale extraction finds at least the
  // single-scale set, with coordinates in base-image range.
  img::image_u8 im(128, 96, 1, 60);
  for (int y = 20; y < 80; y += 12) {
    for (int x = 20; x < 110; x += 12) {
      img::fill_rect(im, x, y, 3, 3, img::color{230, 230, 230});
    }
  }
  feat::orb_params params;
  const auto single = feat::orb_extract(im, params);
  feat::pyramid_params pyr;
  pyr.levels = 3;
  const auto multi = feat::orb_extract_pyramid(im, params, pyr);
  EXPECT_GE(multi.size(), single.size());
  for (const auto& kp : multi.keypoints) {
    EXPECT_GE(kp.x, 0.0f);
    EXPECT_LT(kp.x, 128.0f);
    EXPECT_GE(kp.y, 0.0f);
    EXPECT_LT(kp.y, 96.0f);
  }
}

// ---------------------------------------------------------------------------
// Gain compensation
// ---------------------------------------------------------------------------

geo::warped_patch solid(int x0, int y0, int w, int h, std::uint8_t tone) {
  geo::warped_patch patch;
  patch.x0 = x0;
  patch.y0 = y0;
  patch.pixels = img::image_u8(w, h, 1, tone);
  patch.valid = img::image_u8(w, h, 1, 255);
  return patch;
}

TEST(GainCompensation, MatchesOverlapMean) {
  stitch::compositor canvas;
  ASSERT_TRUE(canvas.ensure(geo::rect{0, 0, 30, 10}));
  canvas.blend(solid(0, 0, 20, 10, 100));
  canvas.feather_seams();
  // The new patch is twice as bright; with compensation its non-overlap
  // region is pulled toward the canvas level.
  canvas.blend(solid(10, 0, 20, 10, 200), /*gain_compensate=*/true);
  const auto out = canvas.render();
  EXPECT_NEAR(out.at(25, 5), 140, 6);  // 200 * 0.7 (clamped gain)
}

TEST(GainCompensation, NoOverlapMeansNoGain) {
  stitch::compositor canvas;
  ASSERT_TRUE(canvas.ensure(geo::rect{0, 0, 40, 10}));
  canvas.blend(solid(0, 0, 10, 10, 100));
  canvas.feather_seams();
  canvas.blend(solid(30, 0, 10, 10, 200), /*gain_compensate=*/true);
  const auto out = canvas.render();
  EXPECT_EQ(out.at(35, 5), 200);  // untouched: nothing to compensate against
}

TEST(GainCompensation, OffByDefaultInPipelineConfig) {
  app::pipeline_config config;
  EXPECT_FALSE(config.gain_compensation);
}

}  // namespace
}  // namespace vs
