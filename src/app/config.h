// Configuration of the end-to-end VS application and its approximations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "features/orb.h"
#include "gate/gate.h"
#include "image/image.h"
#include "match/matcher.h"
#include "pipeline/scheduler.h"
#include "resil/hardening.h"
#include "stitch/stitcher.h"

namespace vs::app {

/// The four algorithm variants evaluated in the paper (Section IV).
enum class algorithm {
  vs,      ///< baseline precise pipeline
  vs_rfd,  ///< Random Frame Dropping (input sampling)
  vs_kds,  ///< Key-point Down-Sampling (selective computation)
  vs_sm,   ///< Simple Matching (algorithmic transformation)
};

[[nodiscard]] const char* algorithm_name(algorithm alg) noexcept;

/// Parses "VS" / "VS_RFD" / "VS_KDS" / "VS_SM" (case-insensitive).
/// Throws invalid_argument on unknown names.
[[nodiscard]] algorithm parse_algorithm(const std::string& name);

/// Approximation knobs (only the knob selected by `alg` is active).
struct approx_config {
  algorithm alg = algorithm::vs;
  double rfd_drop_fraction = 0.10;        ///< paper: up to 10% frames dropped
  double kds_keypoint_fraction = 1.0 / 3.0;  ///< paper: match 1/3 of keypoints
  int sm_max_distance = 30;               ///< paper: fixed distance bound
};

/// Full pipeline configuration.  Defaults reproduce the baseline VS.
struct pipeline_config {
  approx_config approx;
  feat::orb_params orb;
  stitch::alignment_params alignment;
  double match_ratio = 0.75;  ///< Lowe ratio for the baseline 2-NN test
  int discard_limit = 2;  ///< consecutive discards that close a mini-panorama
  std::size_t max_panorama_pixels = 4u << 20;
  /// Exposure compensation between frames while compositing (off in the
  /// calibrated experiments; useful on real footage with auto-gain).
  bool gain_compensation = false;
  std::uint64_t seed = 42;  ///< seeds RANSAC sampling and RFD dropping

  /// Clean-lane frame lookahead: how many frames beyond the one being
  /// stitched may have their prefetchable stage prefix (acquire + detect +
  /// describe) in flight in the stage scheduler's batch queues
  /// (pipeline/scheduler.h), which group them into per-stage pool
  /// dispatches as wide as the pool.  0 runs every stage inline; the
  /// instrumented lane always runs strictly inline whatever this says.
  /// Output is byte-identical at every depth (the prefix is a pure
  /// function of the frame index, consumed in stitch order).
  int frames_in_flight = 2;

  /// External stage scheduler to feed instead of a per-run private one;
  /// runs that share one may have their frames batched into the same
  /// dispatches.  Must outlive the run.  Null = own scheduler when the
  /// lookahead is active.
  pipeline::stage_scheduler* scheduler = nullptr;

  /// Real-time frame gating (src/gate/): the temporal-approximation axis.
  /// gate.request defaults to gate::kLevelInherit, deferring to --gate /
  /// VS_GATE; the resolved default is off, which is bit-identical —
  /// including the instrumented-lane hook stream — to builds without the
  /// subsystem.
  gate::gate_config gate;

  /// Fault containment & recovery (src/resil/).  Off by default: the
  /// unhardened pipeline is bit-identical — including its instrumented-lane
  /// hook stream — to builds without the subsystem.
  resil::hardening_config hardening;

  /// Streaming observer: invoked with (index, rendered image) the moment a
  /// mini-panorama closes, before the run finishes — the hook the serving
  /// front end uses to stream partial summaries to clients.  Purely
  /// observational: the callback sees the same images summarize() returns
  /// in summary_result::mini_panoramas.  Under hardening, a frame retry can
  /// replay a close after state restore, so streaming consumers should drop
  /// indices they have already seen.
  std::function<void(int index, const img::image_u8& panorama)>
      on_mini_panorama;

  /// Derives the matcher configuration implied by the approximation.
  [[nodiscard]] match::match_params matcher() const {
    match::match_params p;
    if (approx.alg == algorithm::vs_sm) {
      p.mode = match::match_mode::simple;
      p.max_distance = approx.sm_max_distance;
    } else {
      p.mode = match::match_mode::ratio_test;
      p.ratio = match_ratio;
    }
    return p;
  }
};

}  // namespace vs::app
