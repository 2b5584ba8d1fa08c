// Unit tests of the real-time gating subsystem (src/gate/): the frame
// gate's decision values and thresholds, ROI mask geometry, descriptor
// cache bounds and determinism, level plumbing, and the recovery contract
// (gated state must not survive a retry or a dead-reckoned frame).
#include <gtest/gtest.h>

#include <cmath>

#include "app/pipeline.h"
#include "gate/change.h"
#include "gate/desc_cache.h"
#include "gate/extrapolate.h"
#include "gate/gate.h"
#include "geometry/mat3.h"
#include "geometry/warp.h"
#include "resil/hardening.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace vs {
namespace {

// ---------------------------------------------------------------------------
// Level plumbing.
// ---------------------------------------------------------------------------

TEST(GateLevel, ParsesEveryNameCaseInsensitively) {
  EXPECT_EQ(gate::parse_level("off"), gate::level::off);
  EXPECT_EQ(gate::parse_level("SKIP"), gate::level::skip);
  EXPECT_EQ(gate::parse_level("Roi"), gate::level::roi);
  EXPECT_EQ(gate::parse_level("cache"), gate::level::cache);
  EXPECT_EQ(gate::parse_level("all"), gate::level::all);
  EXPECT_THROW((void)gate::parse_level("everything"), invalid_argument);
  for (int l = 0; l < gate::level_count; ++l) {
    const auto level = static_cast<gate::level>(l);
    EXPECT_EQ(gate::parse_level(gate::level_name(level)), level);
  }
}

TEST(GateLevel, MechanismArmingMatrix) {
  using gate::level;
  EXPECT_FALSE(gate::skip_enabled(level::off));
  EXPECT_FALSE(gate::roi_enabled(level::off));
  EXPECT_FALSE(gate::cache_enabled(level::off));
  EXPECT_TRUE(gate::skip_enabled(level::skip));
  EXPECT_FALSE(gate::roi_enabled(level::skip));
  EXPECT_TRUE(gate::roi_enabled(level::roi));
  EXPECT_FALSE(gate::cache_enabled(level::roi));
  // cache implies the ROI machinery: reuse needs restricted extraction.
  EXPECT_TRUE(gate::roi_enabled(level::cache));
  EXPECT_TRUE(gate::cache_enabled(level::cache));
  EXPECT_TRUE(gate::skip_enabled(level::all));
  EXPECT_TRUE(gate::roi_enabled(level::all));
  EXPECT_TRUE(gate::cache_enabled(level::all));
}

TEST(GateLevel, ResolvePrefersExplicitConfigOverProcessRequest) {
  EXPECT_EQ(gate::resolve(static_cast<int>(gate::level::roi)),
            gate::level::roi);
  EXPECT_EQ(gate::resolve(gate::kLevelInherit), gate::requested_level());
}

// ---------------------------------------------------------------------------
// Frame gate: decision values and thresholds.
// ---------------------------------------------------------------------------

img::image_u8 gradient_frame(int w, int h, int shift_x) {
  img::image_u8 frame(w, h, 1);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      // Texture with structure at several scales so a shifted copy is
      // unambiguous to the translation search.
      const int sx = x + shift_x;
      frame.at(x, y) = static_cast<std::uint8_t>(
          (sx * 7 + y * 13 + ((sx / 9) * 31 ^ (y / 7) * 17)) & 0xff);
    }
  }
  return frame;
}

TEST(FrameGate, IdenticalThumbsScoreZeroWithZeroShift) {
  const auto frame = gradient_frame(64, 48, 0);
  const auto thumb = gate::make_thumb(frame, 4);
  const auto stats = gate::change_score(thumb, thumb, 3, 4);
  EXPECT_EQ(stats.score, 0.0);
  EXPECT_EQ(stats.raw, 0.0);
  EXPECT_EQ(stats.shift_x, 0);
  EXPECT_EQ(stats.shift_y, 0);
}

TEST(FrameGate, TranslationSearchRecoversTheShift) {
  // Shift the underlying texture by exactly 2 thumb pixels (8 full-res
  // pixels at factor 4): compensated score must drop to ~0 and the shift
  // must be reported in full-resolution pixels.
  const auto ref = gate::make_thumb(gradient_frame(128, 96, 0), 4);
  const auto cur = gate::make_thumb(gradient_frame(128, 96, 8), 4);
  const auto stats = gate::change_score(cur, ref, 3, 4);
  EXPECT_EQ(stats.shift_x, -8);  // content moved 8px left in cur
  EXPECT_EQ(stats.shift_y, 0);
  EXPECT_LT(stats.score, stats.raw);
  EXPECT_LT(stats.score, 2.0);
  EXPECT_GT(stats.raw, 10.0);
}

TEST(FrameGate, CleanRecomputationIsBitwiseIdentical) {
  const auto ref = gate::make_thumb(gradient_frame(128, 96, 0), 4);
  const auto cur = gate::make_thumb(gradient_frame(128, 96, 5), 4);
  const auto hooked = [&] {
    rt::session session;  // hooks live but value-preserving
    return gate::change_score(cur, ref, 6, 4);
  }();
  const auto clean = gate::change_score_clean(cur, ref, 6, 4);
  EXPECT_EQ(hooked, clean);
}

TEST(FrameGate, MismatchedGeometryScoresMaximallyDifferent) {
  const auto a = gate::make_thumb(gradient_frame(64, 48, 0), 4);
  const auto b = gate::make_thumb(gradient_frame(32, 48, 0), 4);
  const auto stats = gate::change_score(a, b, 3, 4);
  EXPECT_EQ(stats.score, 255.0);
  EXPECT_EQ(stats.raw, 255.0);
}

TEST(FrameGate, ClassifyAppliesThresholdsAndAvailability) {
  gate::gate_config cfg;
  cfg.skip_residual = 10.0;
  cfg.skip_motion_px = 8.0;
  cfg.delta_residual = 20.0;

  gate::change_stats still;  // low residual, tiny motion
  still.score = 2.0;
  still.shift_x = 4;
  EXPECT_EQ(gate::classify(still, cfg, true, true), gate::frame_class::skip);
  // Same values with skip unavailable fall through to delta.
  EXPECT_EQ(gate::classify(still, cfg, false, true),
            gate::frame_class::delta);
  EXPECT_EQ(gate::classify(still, cfg, false, false),
            gate::frame_class::full);

  gate::change_stats moving;  // consistent content but too much motion
  moving.score = 6.0;
  moving.shift_x = 12;
  EXPECT_EQ(gate::classify(moving, cfg, true, true),
            gate::frame_class::delta);

  gate::change_stats changed;  // view change: high residual however shifted
  changed.score = 40.0;
  EXPECT_EQ(gate::classify(changed, cfg, true, true),
            gate::frame_class::full);
}

// ---------------------------------------------------------------------------
// Motion extrapolator: ROI geometry and alignment refinement.
// ---------------------------------------------------------------------------

TEST(RoiPlan, PureTranslationLeavesOneFreshStrip) {
  // Current frame content sits 10px left of the reference: the overlap
  // misses the rightmost 10 columns, which must come back as exactly one
  // full-height fresh strip.
  const geo::mat3 cur_to_prev = geo::mat3::translation(10.0, 0.0);
  const auto plan = gate::predict_roi(cur_to_prev, 128, 96);
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.overlap.x0, 0);
  EXPECT_EQ(plan.overlap.w, 118);
  EXPECT_EQ(plan.overlap.h, 96);
  ASSERT_EQ(plan.fresh.size(), 1u);
  EXPECT_EQ(plan.fresh[0].x0, 118);
  EXPECT_EQ(plan.fresh[0].w, 10);
  EXPECT_EQ(plan.fresh[0].y0, 0);
  EXPECT_EQ(plan.fresh[0].h, 96);
}

TEST(RoiPlan, DiagonalMotionYieldsDisjointStripsCoveringTheComplement) {
  const geo::mat3 cur_to_prev = geo::mat3::translation(-7.0, 5.0);
  const auto plan = gate::predict_roi(cur_to_prev, 128, 96);
  ASSERT_TRUE(plan.valid);
  long long fresh_area = 0;
  for (const auto& r : plan.fresh) fresh_area += 1LL * r.w * r.h;
  for (std::size_t i = 0; i < plan.fresh.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.fresh.size(); ++j) {
      EXPECT_TRUE(
          geo::rect_intersect(plan.fresh[i], plan.fresh[j]).empty())
          << "strips " << i << " and " << j << " overlap";
    }
    EXPECT_TRUE(geo::rect_intersect(plan.fresh[i], plan.overlap).empty());
  }
  EXPECT_EQ(fresh_area + 1LL * plan.overlap.w * plan.overlap.h,
            128LL * 96LL);
}

TEST(RoiExtract, KeypointsStayInsideTheRequestedRects) {
  const auto clip = video::make_input(video::input_id::input2, 4);
  const auto frame = clip->frame(0);
  feat::orb_params params;
  const std::vector<geo::rect> rois = {{96, 0, 32, 96}};
  const auto features = gate::extract_roi(frame, rois, params, 20);
  EXPECT_GT(features.size(), 0u);
  for (const auto& kp : features.keypoints) {
    EXPECT_GE(kp.x, 96.0f);
    EXPECT_LT(kp.x, 128.0f);
  }
}

TEST(Extrapolate, RefinesAnOffsetPriorOntoTheTrueTranslation) {
  // prev and cur are views of the same texture, cur shifted 6px right of
  // prev (i.e. cur -> prev maps x to x + 6).  Hand the extrapolator a
  // prior that is 3px off: the search must land on the true model.
  const auto prev = gradient_frame(128, 96, 0);
  const auto cur = gradient_frame(128, 96, 6);
  gate::gate_config cfg;
  cfg.search_radius = 5;
  cfg.sample_step = 4;
  const geo::mat3 prior = geo::mat3::translation(3.0, 0.0);
  const auto extra = gate::extrapolate_alignment(cur, prev, prior, cfg);
  ASSERT_TRUE(extra.valid);
  EXPECT_NEAR(extra.residual, 0.0, 1e-9);
  const geo::vec2 mapped = extra.delta.apply({10.0, 10.0});
  EXPECT_NEAR(mapped.x, 16.0, 1e-9);
  EXPECT_NEAR(mapped.y, 10.0, 1e-9);
}

TEST(Extrapolate, RejectsWhenTheResidualStaysHigh) {
  // Uncorrelated textures: no translation explains the difference.
  const auto prev = gradient_frame(128, 96, 0);
  auto cur = gradient_frame(128, 96, 0);
  for (int y = 0; y < cur.height(); ++y) {
    for (int x = 0; x < cur.width(); ++x) {
      cur.at(x, y) = static_cast<std::uint8_t>(255 - cur.at(x, y));
    }
  }
  gate::gate_config cfg;
  const auto extra =
      gate::extrapolate_alignment(cur, prev, geo::mat3::identity(), cfg);
  EXPECT_FALSE(extra.valid);
}

// ---------------------------------------------------------------------------
// Descriptor cache: bounds, eviction order, rebase aging.
// ---------------------------------------------------------------------------

feat::frame_features features_at(std::initializer_list<float> xs) {
  feat::frame_features f;
  std::uint8_t tone = 1;
  for (const float x : xs) {
    feat::keypoint kp;
    kp.x = x;
    kp.y = 50.0f;
    f.keypoints.push_back(kp);
    feat::descriptor d;
    d.bits[0] = tone++;
    f.descriptors.push_back(d);
  }
  return f;
}

TEST(DescCache, CapacityEvictsOldestStampsFirst) {
  gate::desc_cache cache(3, 10);
  cache.insert(features_at({30.0f, 40.0f}));
  cache.insert(features_at({50.0f, 60.0f}));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  const auto snap = cache.snapshot();
  ASSERT_EQ(snap.keypoints.size(), 3u);
  // 30 (the oldest stamp) was evicted; survivors keep insertion order.
  EXPECT_EQ(snap.keypoints[0].x, 40.0f);
  EXPECT_EQ(snap.keypoints[1].x, 50.0f);
  EXPECT_EQ(snap.keypoints[2].x, 60.0f);
}

TEST(DescCache, SameCellReplacementPrefersTheFreshMeasurement) {
  gate::desc_cache cache(8, 10);
  cache.insert(features_at({30.0f}));
  const auto first = cache.snapshot();
  ASSERT_EQ(first.descriptors.size(), 1u);
  // A re-detection of (almost) the same position replaces the old entry
  // instead of duplicating the cell.
  feat::frame_features again = features_at({30.4f});
  again.descriptors[0].bits[0] = 99;
  cache.insert(again);
  EXPECT_EQ(cache.size(), 1u);
  const auto snap = cache.snapshot();
  EXPECT_EQ(snap.descriptors[0].bits[0], 99u);
}

TEST(DescCache, RebaseWarpsDropsAndAges) {
  gate::desc_cache cache(16, 2);
  cache.insert(features_at({30.0f, 120.0f}));
  // Shift everything 20px right on a 128px frame with a 17px border: the
  // 120px entry leaves the usable area and is dropped (not an eviction).
  cache.rebase(geo::mat3::translation(20.0, 0.0), 128, 96, 17);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  auto snap = cache.snapshot();
  EXPECT_EQ(snap.keypoints[0].x, 50.0f);
  // max_age = 2: the survivor dies of old age on the third rebase.
  cache.rebase(geo::mat3::identity(), 128, 96, 17);
  EXPECT_EQ(cache.size(), 1u);
  cache.rebase(geo::mat3::identity(), 128, 96, 17);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DescCache, RefillResetsContentsButKeepsEvictionCount) {
  gate::desc_cache cache(2, 10);
  cache.insert(features_at({10.0f, 20.0f, 30.0f}));
  EXPECT_EQ(cache.evictions(), 1u);
  cache.refill(features_at({40.0f}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.snapshot().keypoints[0].x, 40.0f);
}

// ---------------------------------------------------------------------------
// End-to-end: gating levels against the exact pipeline.
// ---------------------------------------------------------------------------

const video::synthetic_video& clip2() {
  static const auto clip = video::make_input(video::input_id::input2, 8);
  return *clip;
}

TEST(GatePipeline, OffIsBitIdenticalToTheDefaultConfig) {
  app::pipeline_config base;
  app::pipeline_config off;
  off.gate.request = static_cast<int>(gate::level::off);
  const auto a = app::summarize(clip2(), base);
  const auto b = app::summarize(clip2(), off);
  EXPECT_EQ(a.panorama, b.panorama);
  EXPECT_EQ(a.stats.frames_gated_skip, 0);
  EXPECT_EQ(b.stats.frames_gated_skip, 0);
  EXPECT_EQ(b.stats.frames_gated_delta, 0);
  EXPECT_EQ(b.stats.keypoints_reused, 0u);
}

TEST(GatePipeline, AllElidesWorkAndStitchesEveryFrame) {
  app::pipeline_config config;
  config.gate.request = static_cast<int>(gate::level::all);
  const auto gated = app::summarize(clip2(), config);
  EXPECT_GT(gated.stats.frames_gated_skip, 0);
  EXPECT_EQ(gated.stats.frames_stitched + gated.stats.frames_discarded +
                gated.stats.frames_dropped_rfd,
            gated.stats.frames_total);
  // Skipped frames still land a placement (they ride the previous one).
  EXPECT_EQ(gated.placements.size(),
            static_cast<std::size_t>(gated.stats.frames_stitched));
}

TEST(GatePipeline, SkipLevelNeverTouchesRoiOrCache) {
  app::pipeline_config config;
  config.gate.request = static_cast<int>(gate::level::skip);
  const auto r = app::summarize(clip2(), config);
  EXPECT_EQ(r.stats.frames_gated_delta, 0);
  EXPECT_EQ(r.stats.keypoints_reused, 0u);
}

TEST(GatePipeline, CacheChangesTheOutputOnTheInput3DroppingClip) {
  // The descriptor cache is not a no-op on top of ROI re-detection: on the
  // 82-frame Input 3 clip under VS_RFD, a cache-rebased frame fails to
  // align where the ROI-only frame aligns.  Both levels are deterministic
  // (any pool width), so the counts are pinned exactly.
  const auto clip = video::make_input(video::input_id::input3, 82);
  app::pipeline_config config;
  config.approx.alg = app::algorithm::vs_rfd;
  config.gate.request = static_cast<int>(gate::level::roi);
  const auto roi = app::summarize(*clip, config);
  config.gate.request = static_cast<int>(gate::level::cache);
  const auto cache = app::summarize(*clip, config);

  EXPECT_EQ(roi.stats.frames_dropped_rfd, 4);
  EXPECT_EQ(roi.stats.frames_stitched, 75);
  EXPECT_EQ(roi.stats.frames_discarded, 3);
  EXPECT_EQ(cache.stats.frames_dropped_rfd, 4);
  EXPECT_EQ(cache.stats.frames_stitched, 74);
  EXPECT_EQ(cache.stats.frames_discarded, 4);
  EXPECT_FALSE(roi.panorama == cache.panorama);
}

TEST(GatePipeline, GatedStateIsInvalidatedByRecovery) {
  // Arm a fault that detonates inside a mid-run frame under full hardening:
  // the recovery retry must invalidate the gated state (counted in
  // run_stats) instead of trusting a classification computed from the
  // corrupted attempt.
  app::pipeline_config config;
  config.gate.request = static_cast<int>(gate::level::all);
  config.hardening.level = resil::hardening_level::full;
  app::calibrate_hardening(clip2(), config, clip2().frame_count())
      .apply_to(config.hardening);
  rt::fault_plan plan;
  plan.cls = rt::reg_class::gpr;
  plan.target = 400000;  // lands mid-run, well past the gate's warmup
  plan.bit = 62;
  rt::session session(plan);
  const auto r = app::summarize(clip2(), config);
  ASSERT_TRUE(session.fired());
  ASSERT_GT(r.recovery.retries, 0u);
  EXPECT_GT(r.stats.gate_invalidations, 0);
}

}  // namespace
}  // namespace vs
