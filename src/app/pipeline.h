// The end-to-end Video Summarization application.
//
// Consumes a frame source, aligns consecutive frames (homography with affine
// fallback), accumulates mini-panoramas — closing one and opening the next
// when the view changes too much for frames to be related — and emits the
// coverage summary: the montage of mini-panoramas that stands for the
// paper's output panorama.
#pragma once

#include <vector>

#include "app/config.h"
#include "geometry/mat3.h"
#include "geometry/warp.h"
#include "image/image.h"
#include "video/generator.h"

namespace vs::app {

/// Per-run statistics (the quantities behind the paper's Section IV-A
/// discussion of why approximations speed Input 1 up more than Input 2).
/// Field order is deliberate: every int precedes every size_t so the
/// struct has no padding bytes (goldens digest it bytewise).
struct run_stats {
  int frames_total = 0;        ///< frames offered by the source
  int frames_dropped_rfd = 0;  ///< dropped up-front by VS_RFD
  int frames_stitched = 0;     ///< landed in some mini-panorama
  int frames_discarded = 0;    ///< dropped for lack of matching key points
  int homography_alignments = 0;
  int affine_alignments = 0;
  int mini_panoramas = 0;
  // Real-time gating (src/gate/; all zero at --gate=off):
  int frames_gated_skip = 0;   ///< near-duplicates riding the last placement
  int frames_gated_delta = 0;  ///< extrapolated alignment + ROI extraction
  int gate_invalidations = 0;  ///< gated state dropped by recovery/re-anchor
  std::size_t keypoints_detected = 0;
  std::size_t keypoints_matched_on = 0;  ///< after KDS subsetting
  std::size_t total_matches = 0;
  std::size_t keypoints_reused = 0;  ///< descriptors carried across frames
};

/// Where one stitched frame landed: which mini-panorama, under what
/// transform, and the content-relative origin of that panorama — enough to
/// map frame coordinates onto the rendered summary (event overlays, Fig 2).
struct frame_placement {
  int frame_index = -1;
  int panorama_index = -1;         ///< index into mini_panoramas
  geo::mat3 frame_to_anchor;       ///< frame coords -> anchor coords
};

/// The application result: the summary image plus statistics.
struct summary_result {
  img::image_u8 panorama;  ///< montage of all mini-panoramas
  std::vector<img::image_u8> mini_panoramas;
  /// Content origin (anchor coords) of each mini-panorama's rendered image.
  std::vector<geo::rect> panorama_bounds;
  std::vector<frame_placement> placements;  ///< one per stitched frame
  run_stats stats;
  /// What the hardening detected and recovered (all zero when
  /// config.hardening is off).  Also published per-thread via
  /// resil::last_run_report() for the campaign driver.
  resil::run_report recovery;
};

/// Runs the VS application (or an approximate variant, per config.approx)
/// over `source`.  Deterministic given (source, config).
[[nodiscard]] summary_result summarize(const video::video_source& source,
                                       const pipeline_config& config);

/// What the hardening learns from one fault-free run: per-stage watchdog
/// budgets and the output detectors' envelope.
struct hardening_calibration {
  resil::stage_budget_config stage_budgets;
  fault::detector_calibration calibration;

  void apply_to(resil::hardening_config& hardening) const {
    hardening.stage_budgets = stage_budgets;
    hardening.calibration = calibration;
  }
};

/// Calibrates the hardening the way a deployed system would, with no
/// golden knowledge at run time: one profiled run of `source` under
/// `profile_config` with its hardening off, then budgets of
/// `budget_factor` times the mean per-frame cost over `frames`
/// (resil::derive_stage_budgets) and detector envelopes from that run's
/// output (fault::calibrate_detectors).
[[nodiscard]] hardening_calibration calibrate_hardening(
    const video::video_source& source, pipeline_config profile_config,
    int frames, double budget_factor = resil::kStageBudgetFactor);

}  // namespace vs::app
