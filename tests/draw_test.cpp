#include <gtest/gtest.h>

#include "core/log.h"
#include "image/draw.h"

namespace vs::img {
namespace {

TEST(Draw, PutPixelInBounds) {
  image_u8 im(4, 4, 1);
  put_pixel(im, 1, 2, color{200, 0, 0});
  EXPECT_EQ(im.at(1, 2), 200);
}

TEST(Draw, PutPixelOutOfBoundsIsNoop) {
  image_u8 im(4, 4, 1, 7);
  put_pixel(im, -1, 0, color{200, 0, 0});
  put_pixel(im, 4, 0, color{200, 0, 0});
  for (std::size_t i = 0; i < im.size(); ++i) EXPECT_EQ(im[i], 7);
}

TEST(Draw, PutPixelRgbWritesAllChannels) {
  image_u8 im(2, 2, 3);
  put_pixel(im, 0, 0, color{1, 2, 3});
  EXPECT_EQ(im.at(0, 0, 0), 1);
  EXPECT_EQ(im.at(0, 0, 1), 2);
  EXPECT_EQ(im.at(0, 0, 2), 3);
}

TEST(Draw, LineCoversEndpoints) {
  image_u8 im(8, 8, 1);
  draw_line(im, 1, 1, 6, 4, color{255, 255, 255});
  EXPECT_EQ(im.at(1, 1), 255);
  EXPECT_EQ(im.at(6, 4), 255);
}

TEST(Draw, HorizontalLineIsSolid) {
  image_u8 im(8, 4, 1);
  draw_line(im, 0, 2, 7, 2, color{9, 9, 9});
  for (int x = 0; x < 8; ++x) EXPECT_EQ(im.at(x, 2), 9);
}

TEST(Draw, FillRectClipsToImage) {
  image_u8 im(4, 4, 1);
  fill_rect(im, 2, 2, 10, 10, color{5, 5, 5});
  EXPECT_EQ(im.at(3, 3), 5);
  EXPECT_EQ(im.at(1, 1), 0);
}

TEST(Draw, RectOutlineLeavesInteriorEmpty) {
  image_u8 im(8, 8, 1);
  draw_rect(im, 1, 1, 5, 5, color{8, 8, 8});
  EXPECT_EQ(im.at(1, 1), 8);
  EXPECT_EQ(im.at(3, 3), 0);
}

TEST(Draw, FilledCircleContainsCenterNotCorners) {
  image_u8 im(16, 16, 1);
  fill_circle(im, 8, 8, 4, color{3, 3, 3});
  EXPECT_EQ(im.at(8, 8), 3);
  EXPECT_EQ(im.at(0, 0), 0);
  EXPECT_EQ(im.at(8 + 4, 8), 3);
  EXPECT_EQ(im.at(8 + 5, 8), 0);
}

}  // namespace
}  // namespace vs::img

namespace vs::log {
namespace {

TEST(Log, LevelThresholding) {
  const level original = get_level();
  set_level(level::warn);
  EXPECT_FALSE(enabled(level::debug));
  EXPECT_FALSE(enabled(level::info));
  EXPECT_TRUE(enabled(level::warn));
  EXPECT_TRUE(enabled(level::error));
  set_level(level::off);
  EXPECT_FALSE(enabled(level::error));
  set_level(original);
}

TEST(Log, WriteComposesWithoutCrashing) {
  const level original = get_level();
  set_level(level::off);
  write(level::error, "value=", 42, " name=", "x");  // discarded, no crash
  set_level(original);
}

}  // namespace
}  // namespace vs::log
