// Tests for the substrate extensions: gain-compensated compositing.
#include <gtest/gtest.h>

#include "app/config.h"
#include "stitch/compositor.h"

namespace vs {
namespace {

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
