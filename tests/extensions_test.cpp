// Tests for the substrate extensions: recorded video and gain-compensated
// compositing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <filesystem>

#include "app/config.h"
#include "core/error.h"
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
