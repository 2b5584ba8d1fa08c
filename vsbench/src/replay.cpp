#include "replay.h"

#include <optional>
#include <stdexcept>

#include "gate/change.h"
#include "gate/extrapolate.h"
#include "geometry/homography.h"

namespace vsbench {

namespace {

using vs::app::pipeline_config;
using vs::feat::frame_features;
using vs::geo::mat3;
using vs::img::image_u8;

// stitch::align_frames, split at its layer boundaries: descriptor matching
// (match), then the RANSAC homography -> affine cascade (geometry).
std::optional<vs::stitch::alignment> align(const frame_features& current,
                                           const frame_features& previous,
                                           const pipeline_config& config,
                                           std::uint64_t seed,
                                           span_recorder& spans) {
  const auto matches = spans.record(layer::match, "match_descriptors", [&] {
    return vs::match::match_descriptors(current, previous, config.matcher());
  });
  return spans.record(layer::geometry, "ransac_cascade", [&] {
    const auto pairs = vs::match::to_point_pairs(matches, current, previous);
    const auto& params = config.alignment;
    const auto within_motion_prior = [&](const mat3& model) {
      const vs::geo::vec2 center{64.0, 48.0};
      return vs::geo::distance(center, model.apply(center)) <=
             params.max_motion;
    };
    std::optional<vs::stitch::alignment> out;
    if (pairs.size() >= params.min_matches_homography) {
      if (const auto fit =
              vs::geo::ransac_homography(pairs, params.homography, seed)) {
        if (vs::geo::plausible_homography(fit->model, params.max_scale) &&
            within_motion_prior(fit->model)) {
          out = vs::stitch::alignment{fit->model,
                                      vs::stitch::model_kind::homography,
                                      pairs.size(), fit->inlier_count};
        }
      }
    }
    if (!out && pairs.size() >= params.min_matches_affine) {
      if (const auto fit =
              vs::geo::ransac_affine(pairs, params.affine, seed ^ 1)) {
        if (vs::geo::plausible_homography(fit->model, params.max_scale) &&
            within_motion_prior(fit->model)) {
          out = vs::stitch::alignment{fit->model,
                                      vs::stitch::model_kind::affine,
                                      pairs.size(), fit->inlier_count};
        }
      }
    }
    return out;
  });
}

}  // namespace

replay_result replay_summarize(const vs::video::video_source& source,
                               const pipeline_config& config,
                               span_recorder& spans) {
  if (config.approx.alg != vs::app::algorithm::vs ||
      config.hardening.enabled() || config.scheduler != nullptr) {
    throw std::invalid_argument(
        "replay covers the unhardened baseline VS variant only");
  }
  namespace gate = vs::gate;
  const gate::level glevel = gate::resolve(config.gate.request);
  const bool gating = glevel != gate::level::off;
  const auto& gcfg = config.gate;

  replay_result out;
  auto& stats = out.stats;
  auto& counts = out.counts;
  stats.frames_total = source.frame_count();

  std::vector<image_u8> minis;
  vs::stitch::mini_panorama_builder builder(config.max_panorama_pixels,
                                            config.gain_compensation);
  mat3 cumulative = mat3::identity();
  frame_features prev_features;
  bool have_reference = false;
  int consecutive_discards = 0;
  gate::runtime_state gst;
  gst.cache.configure(gcfg.cache_capacity, gcfg.cache_max_age);

  const auto add_frame = [&](const image_u8& frame, const mat3& to_anchor) {
    return spans.record(layer::stitch, "add_frame", [&] {
      const bool added = builder.add_frame(frame, to_anchor);
      ++counts.add_frames;
      counts.canvas_mpix +=
          static_cast<double>(builder.content_bounds().area()) / 1e6;
      return added;
    });
  };
  const auto close_mini = [&] {
    if (!builder.empty()) {
      auto pano = spans.record(layer::stitch, "render",
                               [&] { return builder.render(); });
      if (!pano.empty()) {
        minis.push_back(std::move(pano));
        ++stats.mini_panoramas;
      }
    }
    builder = vs::stitch::mini_panorama_builder(config.max_panorama_pixels,
                                                config.gain_compensation);
    cumulative = mat3::identity();
    have_reference = false;
    consecutive_discards = 0;
  };
  const auto note_reference_frame = [&](const image_u8& frame) {
    if (!gating || !gate::roi_enabled(glevel)) return;
    gst.ref_frame = frame;
    if (gate::cache_enabled(glevel)) {
      spans.record(layer::gate, "cache_refill",
                   [&] { gst.cache.refill(prev_features); });
    }
  };
  // A frame that could not be placed on the open canvas anchors a new one.
  const auto reanchor = [&](const image_u8& frame, frame_features&& features) {
    ++stats.frames_discarded;
    close_mini();
    if (add_frame(frame, mat3::identity())) {
      ++stats.frames_stitched;
      --stats.frames_discarded;
      prev_features = std::move(features);
      have_reference = true;
      note_reference_frame(frame);
    }
  };

  for (int index = 0; index < stats.frames_total; ++index) {
    image_u8 frame = spans.record(layer::video, "frame",
                                  [&] { return source.frame(index); });

    gate::frame_class cls = gate::frame_class::full;
    bool delta_mode = false;
    gate::roi_plan plan;
    gate::extrapolation extra;
    if (gating) {
      image_u8 thumb = spans.record(layer::gate, "make_thumb", [&] {
        return gate::make_thumb(frame, gcfg.thumb_factor);
      });
      gate::change_stats change;
      if (gst.have_ref && have_reference) {
        change = spans.record(layer::gate, "change_score", [&] {
          return gate::change_score(thumb, gst.ref_thumb, gcfg.thumb_search,
                                    gcfg.thumb_factor);
        });
      }
      gst.last_score = change.score;
      const bool can_skip = gate::skip_enabled(glevel) && gst.have_ref &&
                            have_reference &&
                            gst.consecutive_skips < gcfg.max_consecutive_skips;
      const bool can_delta =
          gate::roi_enabled(glevel) && have_reference &&
          !gst.ref_frame.empty() &&
          gst.consecutive_deltas < gcfg.max_consecutive_deltas;
      cls = spans.record(layer::gate, "classify", [&] {
        return gate::classify(change, gcfg, can_skip, can_delta);
      });
      if (cls == gate::frame_class::skip) {
        ++gst.consecutive_skips;
      } else {
        gst.ref_thumb = std::move(thumb);
        gst.have_ref = true;
        gst.consecutive_skips = 0;
      }
      if (cls == gate::frame_class::delta) {
        const mat3 prior = mat3::translation(-double(change.shift_x),
                                             -double(change.shift_y));
        extra = spans.record(layer::gate, "extrapolate_alignment", [&] {
          return gate::extrapolate_alignment(frame, gst.ref_frame, prior,
                                             gcfg);
        });
        if (extra.valid) {
          plan = spans.record(layer::gate, "predict_roi", [&] {
            return gate::predict_roi(extra.delta, frame.width(),
                                     frame.height());
          });
        }
        delta_mode = extra.valid && plan.valid;
        if (!delta_mode) cls = gate::frame_class::full;
      }
      if (cls == gate::frame_class::full) gst.consecutive_deltas = 0;
    }

    if (cls == gate::frame_class::skip) {
      ++stats.frames_gated_skip;
      ++stats.frames_stitched;
      continue;
    }

    frame_features features =
        delta_mode
            ? spans.record(layer::features, "extract_roi",
                           [&] {
                             return gate::extract_roi(frame, plan.fresh,
                                                      config.orb,
                                                      gcfg.roi_margin);
                           })
            : spans.record(layer::features, "orb_extract", [&] {
                return vs::feat::orb_extract(frame, config.orb);
              });
    stats.keypoints_detected += features.size();
    if (!delta_mode) stats.keypoints_matched_on += features.size();

    if (delta_mode) {
      ++stats.frames_gated_delta;
      ++gst.consecutive_deltas;
      const int border = config.orb.fast.border;
      frame_features carried;
      if (const auto inv = extra.delta.inverse()) {
        if (gate::cache_enabled(glevel)) {
          carried = spans.record(layer::gate, "cache_reuse", [&] {
            gst.cache.rebase(*inv, frame.width(), frame.height(), border);
            stats.keypoints_reused += gst.cache.size();
            gst.cache.insert(features);
            return gst.cache.snapshot();
          });
        } else {
          carried = spans.record(layer::gate, "rebase_features", [&] {
            auto rebased = gate::rebase_features(prev_features, *inv,
                                                 frame.width(),
                                                 frame.height(), border);
            stats.keypoints_reused += rebased.size();
            for (std::size_t i = 0; i < features.size(); ++i) {
              rebased.keypoints.push_back(features.keypoints[i]);
              rebased.descriptors.push_back(features.descriptors[i]);
            }
            return rebased;
          });
        }
      } else {
        carried = features;
      }
      const mat3 frame_to_anchor = cumulative * extra.delta;
      if (add_frame(frame, frame_to_anchor)) {
        cumulative = frame_to_anchor;
        prev_features = std::move(carried);
        ++stats.frames_stitched;
        consecutive_discards = 0;
        gst.ref_frame = frame;
      } else {
        reanchor(frame, std::move(carried));
      }
      continue;
    }

    if (!have_reference) {
      if (add_frame(frame, mat3::identity())) {
        ++stats.frames_stitched;
        prev_features = std::move(features);
        have_reference = true;
        consecutive_discards = 0;
        note_reference_frame(frame);
      } else {
        ++stats.frames_discarded;
      }
      continue;
    }

    ++counts.align_attempts;
    const auto aligned =
        align(features, prev_features, config,
              config.seed + static_cast<std::uint64_t>(index) * 7919u, spans);
    if (!aligned) {
      ++counts.align_failures;
      ++stats.frames_discarded;
      if (++consecutive_discards > config.discard_limit) {
        --stats.frames_discarded;  // reanchor counts it again
        reanchor(frame, std::move(features));
      }
      continue;
    }
    stats.total_matches += aligned->matches;
    counts.inliers += aligned->inliers;
    if (aligned->kind == vs::stitch::model_kind::homography) {
      ++stats.homography_alignments;
    } else {
      ++stats.affine_alignments;
    }
    const mat3 frame_to_anchor = cumulative * aligned->transform;
    if (add_frame(frame, frame_to_anchor)) {
      cumulative = frame_to_anchor;
      prev_features = std::move(features);
      ++stats.frames_stitched;
      consecutive_discards = 0;
      note_reference_frame(frame);
    } else {
      reanchor(frame, std::move(features));
    }
  }
  close_mini();
  out.panorama = spans.record(layer::stitch, "montage",
                              [&] { return vs::stitch::montage(minis); });
  return out;
}

}  // namespace vsbench
