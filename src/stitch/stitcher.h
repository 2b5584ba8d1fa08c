// Pairwise frame alignment and mini-panorama construction.
//
// align_frames implements the model cascade of Section III-A: try a RANSAC
// homography; when too few matches survive, fall back to a RANSAC affine
// estimate; when even that is unsupported, report failure so the pipeline
// discards the frame.
#pragma once

#include <optional>

#include "features/keypoint.h"
#include "geometry/ransac.h"
#include "match/matcher.h"
#include "stitch/compositor.h"

namespace vs::stitch {

struct alignment_params {
  geo::ransac_params homography;
  geo::ransac_params affine;
  std::size_t min_matches_homography = 7;   ///< matches needed to attempt H
  std::size_t min_matches_affine = 6;        ///< matches needed to attempt A
  double max_scale = 4.0;  ///< plausibility bound on the model's scale

  // Motion prior: the largest credible inter-frame camera displacement, in
  // pixels of frame-center motion.  Video stitchers bound their match
  // search by the expected frame-to-frame motion; a model that implies a
  // jump beyond it is rejected as a mismatch.  This is what turns a
  // dropped frame (doubled displacement) into additional discarded frames
  // on the fast-moving input (the paper's Section IV-A cascade).
  double max_motion = 28.0;

  alignment_params() {
    homography.inlier_threshold = 2.5;
    homography.min_inliers = 6;
    homography.max_iterations = 64;
    affine.inlier_threshold = 2.5;
    affine.min_inliers = 5;
    affine.max_iterations = 48;
  }
};

enum class model_kind { homography, affine };

struct alignment {
  geo::mat3 transform;  ///< maps current-frame coords to previous-frame coords
  model_kind kind = model_kind::homography;
  std::size_t matches = 0;
  std::size_t inliers = 0;
};

/// Aligns `current` to `previous` given their features.  Returns nullopt
/// when no plausible model is supported (the frame-discard path).
[[nodiscard]] std::optional<alignment> align_frames(
    const feat::frame_features& current, const feat::frame_features& previous,
    const match::match_params& match_params, const alignment_params& params,
    std::uint64_t seed);

/// Accumulates aligned frames into one mini-panorama anchored at its first
/// frame's coordinate system.
class mini_panorama_builder {
 public:
  explicit mini_panorama_builder(std::size_t max_pixels = 4u << 20,
                                 bool gain_compensation = false);

  /// Warps `frame` through `frame_to_anchor` and composites it.  Returns
  /// false (frame not added) when the projection is implausible or the
  /// canvas would exceed its cap.
  bool add_frame(const img::image_u8& frame, const geo::mat3& frame_to_anchor);

  [[nodiscard]] int frames_added() const noexcept { return frames_added_; }
  [[nodiscard]] bool empty() const noexcept { return frames_added_ == 0; }

  /// Renders the composited mini-panorama (empty image when no frames).
  [[nodiscard]] img::image_u8 render() const;

  /// World rectangle of the rendered content (anchor coordinates).
  [[nodiscard]] geo::rect content_bounds() const {
    return canvas_.content_bounds();
  }

  bool operator==(const mini_panorama_builder&) const = default;

 private:
  compositor canvas_;
  bool gain_compensation_ = false;
  int frames_added_ = 0;
};

}  // namespace vs::stitch
