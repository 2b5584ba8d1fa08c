// Two-lane equivalence: the parallel clean lane must produce byte-identical
// results to the sequential instrumented lane, at every pool width and at
// every SIMD level the host supports.
//
// The reference is each kernel run inside an rt::session with no fault armed
// (hooks enabled but value-preserving — the exact stream a fault campaign
// replays).  The candidate is the same kernel with instrumentation off,
// which dispatches to the thread-pool clean lane; each candidate repeats
// across the width x SIMD-level matrix.  Any divergence here would mean the
// production path and the studied path are different programs, so everything
// is compared exactly: pixels, keypoints, descriptors, matches.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "resil/hardening.h"
#include "features/fast.h"
#include "features/orb.h"
#include "gate/gate.h"
#include "geometry/warp.h"
#include "match/matcher.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace vs {
namespace {

/// Pool widths each clean-lane run is repeated at.  Determinism across
/// widths is the pool's core guarantee; width 1 also exercises the inline
/// path.
constexpr unsigned kWidths[] = {1, 2, 4};

/// Restores the global pool to automatic width when a test exits.
struct pool_width_guard {
  ~pool_width_guard() { core::thread_pool::set_global_threads(0); }
};

/// Restores the process-wide SIMD request when a test exits.
struct simd_level_guard {
  core::simd::level saved = core::simd::requested();
  ~simd_level_guard() { core::simd::set_level(saved); }
};

/// SIMD tiers to sweep: every tier up to the best the host offers, so the
/// SSE4 twins also run on an AVX2 host.  On a scalar-only host that
/// collapses to one entry.
std::vector<core::simd::level> test_levels() {
  std::vector<core::simd::level> levels;
  for (int l = 0; l <= static_cast<int>(core::simd::detected()); ++l) {
    levels.push_back(static_cast<core::simd::level>(l));
  }
  return levels;
}

/// "width 2, simd avx2" — failure-message context for matrix sweeps.
std::string matrix_point(unsigned width, core::simd::level l) {
  return "width " + std::to_string(width) + ", simd " +
         core::simd::level_name(l);
}

const video::synthetic_video& clip(video::input_id id) {
  static const auto one = video::make_input(video::input_id::input1, 8);
  static const auto two = video::make_input(video::input_id::input2, 8);
  return id == video::input_id::input1 ? *one : *two;
}

img::image_u8 test_frame(video::input_id id, int index) {
  rt::session session;  // render the reference frame on the instrumented lane
  return clip(id).frame(index);
}

void expect_same_keypoints(const std::vector<feat::keypoint>& a,
                           const std::vector<feat::keypoint>& b,
                           const std::string& at) {
  ASSERT_EQ(a.size(), b.size()) << at;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(feat::keypoint)), 0)
        << "keypoint " << i << " at " << at;
  }
}

/// Runs `candidate` at every pool width x SIMD level, handing each run its
/// matrix coordinates for failure messages.
template <typename Fn>
void for_each_matrix_point(Fn&& candidate) {
  for (const auto level : test_levels()) {
    core::simd::set_level(level);
    for (const unsigned width : kWidths) {
      core::thread_pool::set_global_threads(width);
      candidate(matrix_point(width, level));
    }
  }
}

/// Frames for the feature-extraction sweeps: a real textured frame plus
/// the degenerate contents a segment test can trip on.
enum class frame_kind { textured, flat, saturated, checkerboard };

const char* frame_kind_name(frame_kind kind) {
  switch (kind) {
    case frame_kind::textured: return "textured";
    case frame_kind::flat: return "flat";
    case frame_kind::saturated: return "saturated";
    case frame_kind::checkerboard: return "checkerboard";
  }
  return "?";
}

/// A width x 96 frame of `kind`.  The textured one is the top-left corner
/// of an Input 1 frame.
img::image_u8 kind_frame(frame_kind kind, int width) {
  constexpr int height = 96;
  img::image_u8 out(width, height, 1);
  const auto texture = test_frame(video::input_id::input1, 3);
  rng gen(0x5a7u);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      std::uint8_t v = 128;
      switch (kind) {
        case frame_kind::textured:
          v = texture.at(x % texture.width(), y % texture.height());
          break;
        case frame_kind::flat:
          break;
        case frame_kind::saturated:
          // Blobs of 0 and 255 only: every difference is 0 or 255.
          v = ((x / 5 + y / 7) % 3 == 0 || gen.uniform(9) == 0) ? 255 : 0;
          break;
        case frame_kind::checkerboard:
          v = ((x / 4 + y / 4) % 2 == 0) ? 40 : 215;
          break;
      }
      out.at(x, y) = v;
    }
  }
  return out;
}

constexpr frame_kind kFrameKinds[] = {frame_kind::textured, frame_kind::flat,
                                      frame_kind::saturated,
                                      frame_kind::checkerboard};

/// Widths whose detection windows (width - 2 * border) leave a vector
/// tail: 128 (the inputs' width), 101, and 45, narrower than one AVX2
/// score block once the extractor's border is applied.
constexpr int kFrameWidths[] = {128, 101, 45};

std::string frame_point(frame_kind kind, int width, int threshold) {
  return std::string(frame_kind_name(kind)) + " w" + std::to_string(width) +
         " t" + std::to_string(threshold);
}

/// The detection thresholds both extraction sweeps cover.
constexpr int kThresholds[] = {10, 1, 255, 300};

TEST(ParallelEquivalence, FastDetect) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  for (const frame_kind kind : kFrameKinds) {
    for (const int frame_width : kFrameWidths) {
      const auto gray = kind_frame(kind, frame_width);
      for (const int threshold : kThresholds) {
        feat::fast_params params;
        params.threshold = threshold;
        const std::string frame_at = frame_point(kind, frame_width, threshold);
        std::vector<feat::keypoint> reference;
        {
          rt::session session;
          reference = feat::fast_detect(gray, params);
        }
        for_each_matrix_point([&](const std::string& at) {
          expect_same_keypoints(reference, feat::fast_detect(gray, params),
                                frame_at + ", " + at);
        });
      }
    }
  }
}

void expect_same_features(const feat::frame_features& reference,
                          const feat::frame_features& clean,
                          const std::string& at) {
  expect_same_keypoints(reference.keypoints, clean.keypoints, at);
  ASSERT_EQ(reference.descriptors.size(), clean.descriptors.size()) << at;
  for (std::size_t i = 0; i < reference.descriptors.size(); ++i) {
    EXPECT_EQ(reference.descriptors[i], clean.descriptors[i])
        << "descriptor " << i << " at " << at;
  }
}

TEST(ParallelEquivalence, OrbExtract) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  const auto run = [](const img::image_u8& gray,
                      const feat::orb_params& params,
                      const std::string& frame_at) {
    feat::frame_features reference;
    {
      rt::session session;
      reference = feat::orb_extract(gray, params);
    }
    for_each_matrix_point([&](const std::string& at) {
      expect_same_features(reference, feat::orb_extract(gray, params),
                           frame_at + ", " + at);
    });
  };
  run(test_frame(video::input_id::input2, 2), feat::orb_params{}, "input2");
  for (const frame_kind kind : kFrameKinds) {
    for (const int frame_width : kFrameWidths) {
      const auto gray = kind_frame(kind, frame_width);
      for (const int threshold : kThresholds) {
        feat::orb_params params;
        params.fast.threshold = threshold;
        run(gray, params, frame_point(kind, frame_width, threshold));
      }
    }
  }
}

TEST(ParallelEquivalence, OrbExtractPatchRadii) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  const auto gray = test_frame(video::input_id::input2, 2);
  // The default radius first, so a pattern table latched on the first
  // radius seen would serve the later ones.
  for (const int radius : {7, 9, 5}) {
    feat::orb_params params;
    params.patch_radius = radius;
    feat::frame_features reference;
    {
      rt::session session;
      reference = feat::orb_extract(gray, params);
    }
    ASSERT_FALSE(reference.empty()) << "radius " << radius;
    for_each_matrix_point([&](const std::string& at) {
      expect_same_features(reference, feat::orb_extract(gray, params),
                           "radius " + std::to_string(radius) + ", " + at);
    });
  }
}

TEST(ParallelEquivalence, MatchDescriptorsBothModes) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  feat::frame_features query;
  feat::frame_features train;
  {
    rt::session session;
    query = feat::orb_extract(test_frame(video::input_id::input1, 4),
                              feat::orb_params{});
    train = feat::orb_extract(test_frame(video::input_id::input1, 5),
                              feat::orb_params{});
  }
  ASSERT_FALSE(query.empty());
  ASSERT_FALSE(train.empty());
  for (const auto mode :
       {match::match_mode::ratio_test, match::match_mode::simple}) {
    match::match_params params;
    params.mode = mode;
    std::vector<match::match> reference;
    {
      rt::session session;
      reference = match::match_descriptors(query, train, params);
    }
    for_each_matrix_point([&](const std::string& at) {
      const auto clean = match::match_descriptors(query, train, params);
      ASSERT_EQ(reference.size(), clean.size()) << at;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].query, clean[i].query) << at;
        EXPECT_EQ(reference[i].train, clean[i].train) << at;
        EXPECT_EQ(reference[i].distance, clean[i].distance) << at;
      }
    });
  }
}

TEST(ParallelEquivalence, WarpPerspective) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  const auto src = test_frame(video::input_id::input2, 1);
  geo::mat3 h = geo::mat3::identity();
  h(0, 0) = 0.98;
  h(0, 1) = 0.05;
  h(0, 2) = 3.5;
  h(1, 0) = -0.04;
  h(1, 1) = 1.02;
  h(1, 2) = -2.25;
  h(2, 0) = 1e-4;
  h(2, 1) = -5e-5;
  const geo::rect out_rect{-8, -8, src.width() + 16, src.height() + 16};
  geo::warped_patch reference;
  {
    rt::session session;
    reference = geo::warp_perspective(src, h, out_rect);
  }
  for_each_matrix_point([&](const std::string& at) {
    const auto clean = geo::warp_perspective(src, h, out_rect);
    EXPECT_EQ(reference.pixels, clean.pixels) << at;
    EXPECT_EQ(reference.valid, clean.valid) << at;
    EXPECT_EQ(reference.x0, clean.x0) << at;
    EXPECT_EQ(reference.y0, clean.y0) << at;
  });
}

TEST(ParallelEquivalence, SyntheticFrameRendering) {
  const pool_width_guard guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    for (const int index : {0, 3, 7}) {
      const auto reference = test_frame(id, index);
      for (const unsigned width : kWidths) {
        core::thread_pool::set_global_threads(width);
        EXPECT_EQ(reference, clip(id).frame(index))
            << video::input_name(id) << " frame " << index << " at pool width "
            << width;
      }
    }
  }
}

void expect_same_summary(const app::summary_result& a,
                         const app::summary_result& b, const std::string& at) {
  EXPECT_EQ(a.panorama, b.panorama) << at;
  ASSERT_EQ(a.mini_panoramas.size(), b.mini_panoramas.size());
  for (std::size_t i = 0; i < a.mini_panoramas.size(); ++i) {
    EXPECT_EQ(a.mini_panoramas[i], b.mini_panoramas[i])
        << "mini-panorama " << i << " at " << at;
  }
  EXPECT_EQ(a.stats.frames_total, b.stats.frames_total);
  EXPECT_EQ(a.stats.frames_dropped_rfd, b.stats.frames_dropped_rfd);
  EXPECT_EQ(a.stats.frames_stitched, b.stats.frames_stitched);
  EXPECT_EQ(a.stats.frames_discarded, b.stats.frames_discarded);
  EXPECT_EQ(a.stats.homography_alignments, b.stats.homography_alignments);
  EXPECT_EQ(a.stats.affine_alignments, b.stats.affine_alignments);
  EXPECT_EQ(a.stats.mini_panoramas, b.stats.mini_panoramas);
  EXPECT_EQ(a.stats.frames_gated_skip, b.stats.frames_gated_skip);
  EXPECT_EQ(a.stats.frames_gated_delta, b.stats.frames_gated_delta);
  EXPECT_EQ(a.stats.keypoints_reused, b.stats.keypoints_reused);
  EXPECT_EQ(a.stats.keypoints_detected, b.stats.keypoints_detected);
  EXPECT_EQ(a.stats.keypoints_matched_on, b.stats.keypoints_matched_on);
  EXPECT_EQ(a.stats.total_matches, b.stats.total_matches);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i].frame_index, b.placements[i].frame_index);
    EXPECT_EQ(a.placements[i].panorama_index, b.placements[i].panorama_index);
  }
}

TEST(ParallelEquivalence, EndToEndBothInputs) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    const auto& source = clip(id);
    app::summary_result reference;
    {
      rt::session session;
      reference = app::summarize(source, app::pipeline_config{});
    }
    for_each_matrix_point([&](const std::string& at) {
      const auto clean = app::summarize(source, app::pipeline_config{});
      expect_same_summary(reference, clean,
                          std::string(video::input_name(id)) + " at " + at);
    });
  }
}

TEST(ParallelEquivalence, EndToEndFullyHardened) {
  const pool_width_guard guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    const auto& source = clip(id);

    // Calibrate the hardening from a fault-free profiled run, exactly as
    // the campaign drivers do.
    app::pipeline_config config;
    config.hardening.level = resil::hardening_level::full;
    app::calibrate_hardening(source, config, source.frame_count())
        .apply_to(config.hardening);

    app::summary_result reference;
    {
      rt::session session;
      reference = app::summarize(source, config);
    }
    for (const unsigned width : kWidths) {
      core::thread_pool::set_global_threads(width);
      const auto clean = app::summarize(source, config);
      expect_same_summary(reference, clean,
                          "width " + std::to_string(width));
    }

    // Hardening must not perturb the fault-free output either: the clean
    // lane at width 4 still matches the unhardened pipeline.
    const auto unhardened = app::summarize(source, app::pipeline_config{});
    EXPECT_EQ(reference.panorama, unhardened.panorama)
        << video::input_name(id);
  }
}

// The batch and depth axes: the acquisition scheduler (pipeline/scheduler.h)
// must be byte-invisible.  Its batch size is the dispatch pool's width, so
// the sweep over lookaheads {0, 1, 2, 4} x pool widths {1, 2, 4} x SIMD
// levels covers every batch size from one frame per dispatch to four, at
// the default depth of `vs summarize` (2) too, gate off and at `all`.
// Each cell must reproduce the instrumented-lane reference, which is the
// depth-0 summary.
TEST(ParallelEquivalence, EndToEndBatchAxis) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    const auto& source = clip(id);
    for (const auto level : {gate::level::off, gate::level::all}) {
      app::pipeline_config config;
      config.gate.request = static_cast<int>(level);
      app::summary_result reference;
      {
        rt::session session;
        reference = app::summarize(source, config);
      }
      for (const int depth : {0, 1, 2, 4}) {
        config.frames_in_flight = depth;
        for_each_matrix_point([&](const std::string& at) {
          const auto clean = app::summarize(source, config);
          expect_same_summary(reference, clean,
                              std::string(video::input_name(id)) + " gate " +
                                  gate::level_name(level) + " depth " +
                                  std::to_string(depth) + " at " + at);
        });
      }
    }
  }
}

// The gate axis: gating changes WHAT is computed (that is its point), but
// it must never change it differently across execution shapes.  For every
// gate level the gated summary — including the skip/delta counters and the
// descriptor-reuse count, which expose the cache's contents — must be
// byte-identical at a lookahead of 4 across pool widths x SIMD levels to
// the sequential instrumented-lane reference at the same level.
TEST(ParallelEquivalence, EndToEndGateAxis) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    const auto& source = clip(id);
    for (const auto level : {gate::level::skip, gate::level::roi,
                             gate::level::cache, gate::level::all}) {
      app::pipeline_config config;
      config.gate.request = static_cast<int>(level);
      app::summary_result reference;
      {
        rt::session session;
        reference = app::summarize(source, config);
      }
      config.frames_in_flight = 4;
      for_each_matrix_point([&](const std::string& at) {
        const auto clean = app::summarize(source, config);
        expect_same_summary(reference, clean,
                            std::string(video::input_name(id)) + " gate " +
                                gate::level_name(level) + " at " + at);
      });
    }
  }
}

// The full matrix: both inputs x every approximation variant x pool widths
// {1, 2, 4} x SIMD levels {scalar, best available}.  Each cell must
// reproduce the instrumented-lane reference byte for byte.
TEST(ParallelEquivalence, EndToEndApproximateVariants) {
  const pool_width_guard guard;
  const simd_level_guard simd_guard;
  for (const auto id : {video::input_id::input1, video::input_id::input2}) {
    const auto& source = clip(id);
    for (const auto alg : {app::algorithm::vs_rfd, app::algorithm::vs_kds,
                           app::algorithm::vs_sm}) {
      app::pipeline_config config;
      config.approx.alg = alg;
      app::summary_result reference;
      {
        rt::session session;
        reference = app::summarize(source, config);
      }
      for_each_matrix_point([&](const std::string& at) {
        const auto clean = app::summarize(source, config);
        expect_same_summary(
            reference, clean,
            std::string(video::input_name(id)) + " " +
                app::algorithm_name(config.approx.alg) + " at " + at);
      });
    }
  }
}

}  // namespace
}  // namespace vs
