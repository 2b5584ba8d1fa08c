#include "stitch/stitcher.h"

#include "geometry/affine.h"
#include "geometry/homography.h"
#include "resil/runtime.h"
#include "rt/instrument.h"

namespace vs::stitch {

std::optional<alignment> align_frames(const feat::frame_features& current,
                                      const feat::frame_features& previous,
                                      const match::match_params& match_params,
                                      const alignment_params& params,
                                      std::uint64_t seed) {
  const auto matches =
      match::match_descriptors(current, previous, match_params);
  const auto pairs = match::to_point_pairs(matches, current, previous);

  // The match count is the control value the cascade branches on.
  const auto n_matches = static_cast<std::size_t>(
      rt::ctrl(static_cast<std::int64_t>(pairs.size())));

  // Motion-prior gate: the displacement the model implies for the frame
  // center must stay within the expected inter-frame motion.
  const auto within_motion_prior = [&](const geo::mat3& model) {
    const geo::vec2 center{64.0, 48.0};
    const geo::vec2 moved = model.apply(center);
    return geo::distance(center, moved) <= params.max_motion;
  };

  // The estimate transition is marked here, not by the frame_executor: the
  // cascade decides at run time whether estimation is reached at all, and
  // estimate rides inside match's watchdog scope.
  if (n_matches >= params.min_matches_homography) {
    resil::mark(resil::cfcss::node::estimate);
    if (const auto fit = geo::ransac_homography(pairs, params.homography,
                                                seed)) {
      if (geo::plausible_homography(fit->model, params.max_scale) &&
          within_motion_prior(fit->model)) {
        return alignment{fit->model, model_kind::homography, pairs.size(),
                         fit->inlier_count};
      }
    }
  }
  if (n_matches >= params.min_matches_affine) {
    resil::mark(resil::cfcss::node::estimate);
    if (const auto fit = geo::ransac_affine(pairs, params.affine, seed ^ 1)) {
      if (geo::plausible_homography(fit->model, params.max_scale) &&
          within_motion_prior(fit->model)) {
        return alignment{fit->model, model_kind::affine, pairs.size(),
                         fit->inlier_count};
      }
    }
  }
  return std::nullopt;
}

namespace {

std::uint64_t patch_digest(const geo::warped_patch& patch) {
  return img::digest(patch.pixels) ^ (img::digest(patch.valid) * 31u) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(patch.x0))
          << 32) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(patch.y0));
}

}  // namespace

mini_panorama_builder::mini_panorama_builder(std::size_t max_pixels,
                                             bool gain_compensation)
    : canvas_(max_pixels), gain_compensation_(gain_compensation) {}

bool mini_panorama_builder::add_frame(const img::image_u8& frame,
                                      const geo::mat3& frame_to_anchor) {
  if (!geo::plausible_homography(frame_to_anchor, 8.0)) return false;
  const auto bounds =
      geo::projected_bounds(frame_to_anchor, frame.width(), frame.height(),
                            /*coord_limit=*/32768.0);
  if (!bounds || bounds->empty()) return false;
  if (!canvas_.ensure(*bounds)) return false;

  // As in cv::warpPerspective(frame, dst, H, dsize = panorama size): every
  // frame is warped over the full panorama extent (the invoker walks every
  // destination pixel; only those whose preimage lands in the frame are
  // produced).  This is what makes WarpPerspective the dominant cost of the
  // application (Fig 8) and per-frame cost grow with panorama size — the
  // polynomial complexity in frames the paper cites (Section IV-A).
  auto patch = geo::warp_perspective(frame, frame_to_anchor, canvas_.bounds());
  // The composite replica (hardening level full) digests the patch rather
  // than recomputing the stage: composite produces a pixel buffer, and
  // blending mutates the canvas.  The checked product is the warped patch
  // the blend consumes, re-warped on the clean lane and compared by digest
  // *before* the canvas mutates — blending and feathering cannot re-run, so
  // the check sits at the last pure point of the stage.
  resil::verify_replica(
      [&] { return patch_digest(patch); },
      [&] {
        return patch_digest(
            geo::warp_perspective(frame, frame_to_anchor, canvas_.bounds()));
      });
  canvas_.blend(patch, gain_compensation_);
  canvas_.feather_seams();
  ++frames_added_;
  return true;
}

img::image_u8 mini_panorama_builder::render() const { return canvas_.render(); }

}  // namespace vs::stitch
