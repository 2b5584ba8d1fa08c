// Panorama canvas: an auto-growing destination surface that warped frames
// are composited onto.
//
// Compositing is overwrite-ordered (later frames paint over earlier ones
// where their valid masks overlap).  This matches the VS algorithm's
// behaviour and is what produces the paper's compositional masking: a
// corrupted region written by one frame can be stitched over — and thereby
// masked — by a later overlapping frame (Section VI-C).
#pragma once

#include "geometry/warp.h"
#include "image/image.h"

namespace vs::stitch {

class compositor {
 public:
  /// Creates an empty canvas.  `max_pixels` caps growth; exceeding it
  /// reports failure so the caller can close the current mini-panorama.
  explicit compositor(std::size_t max_pixels = 4u << 20);

  /// Grows the canvas to cover `world_rect` (world = frame-0 coordinates).
  /// Returns false when that would exceed the pixel cap (canvas unchanged).
  bool ensure(const geo::rect& world_rect);

  /// Composites a warped patch (positioned in world coordinates).  The
  /// canvas must already cover the patch (call ensure first).
  /// With `gain_compensate`, the patch's intensities are scaled so its mean
  /// over the overlap region matches the canvas's (classic exposure
  /// compensation; evens out auto-gain flicker between frames).
  void blend(const geo::warped_patch& patch, bool gain_compensate = false);

  /// Seam feathering: one corrective sweep over the whole canvas that
  /// box-smooths pixels on the boundary between the most recent patch and
  /// older content.  This is the per-frame "corrective action to avoid
  /// blurs and distortions" of Section III-A — and the source of the
  /// polynomial (frames x canvas-area) complexity the paper credits for
  /// VS_RFD's large execution-time gains (Section IV-A).
  void feather_seams();

  /// True if nothing has been composited yet.
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  /// World rectangle currently covered by the canvas.
  [[nodiscard]] geo::rect bounds() const noexcept { return bounds_; }

  /// Tight world rectangle of pixels actually written (what render() crops
  /// to).  Empty rect when nothing has been composited.
  [[nodiscard]] geo::rect content_bounds() const;

  /// Fraction of canvas pixels covered by at least one frame.
  [[nodiscard]] double coverage() const;

  /// The composited image, cropped to the covered bounding box (pixels
  /// never painted are 0).  Returns an empty image when nothing landed.
  [[nodiscard]] img::image_u8 render() const;

  bool operator==(const compositor&) const = default;

 private:
  // Clean lane of blend(): row bands of the shared paint row, with the
  // active SIMD tier's row kernel where it applies.
  void blend_clean(const geo::warped_patch& patch, bool gain_compensate);

  std::size_t max_pixels_;
  geo::rect bounds_;
  img::image_u8 pixels_;
  img::image_u8 mask_;   ///< 0 = never written, 1 = old content, 2 = newest
  std::vector<std::size_t> seam_candidates_;  ///< overwrites in latest blend
};

/// Lays out images left-to-right (top-aligned, `gap` background columns
/// between them) into one montage — the "global panorama" assembled from
/// mini-panoramas that the application emits as its output.
[[nodiscard]] img::image_u8 montage(const std::vector<img::image_u8>& images,
                                    int gap = 4);

}  // namespace vs::stitch
