// Real-time frame gating: the adaptive-approximation axis.
//
// The gate subsystem opens a throughput-first operating point built from
// three temporal approximations (arXiv 1901.09287, arXiv 1605.08470):
//
//   * a frame gate (gate/change.h) scoring cheap downsampled inter-frame
//     difference and classifying frames as skip / delta / full,
//   * a motion extrapolator (gate/extrapolate.h) predicting the overlap of
//     the next frame from the last inter-frame model, refining it with a
//     small translation search, and restricting FAST/ORB to newly-revealed
//     image area,
//   * a descriptor cache (gate/desc_cache.h) carrying keypoints and
//     descriptors across overlapping frames.
//
// Gating is an approximation in the paper's own sense, so it is a
// first-class variant axis exactly like --simd: a process-wide
// requested level (--gate flag beats the VS_GATE environment variable;
// unknown environment values fail closed to off), a per-run override in
// app::pipeline_config, and default **off** so every golden — campaign
// distributions, serve outputs, width/SIMD equivalence matrices — is
// byte-identical to an ungated build.
//
// The gated state (reference thumb, last change score, skip/delta streaks,
// cache entries) is part of the fault surface: it lives inside the
// recovery boundary's per-frame snapshot, and a retry or dead-reckoned
// frame invalidates it (see runtime_state::invalidate) so a corrupted
// classification cannot outlive the frame that produced it.
#pragma once

#include <cstdint>
#include <string>

#include "gate/desc_cache.h"
#include "image/image.h"

namespace vs::gate {

/// Gate levels: which temporal approximations are armed.  skip / roi /
/// cache arm one mechanism each (the campaign's ablation axis); all arms
/// every mechanism (the real-time operating point).  The cache level
/// implies the ROI machinery — cached descriptors are refreshed from
/// newly-revealed area, so reuse without restriction has nothing to reuse.
enum class level : std::uint8_t {
  off = 0,  ///< gating disabled: bit-identical to an ungated build
  skip,     ///< frame gate only: near-duplicates reuse the last placement
  roi,      ///< motion extrapolation + ROI-restricted extraction only
  cache,    ///< descriptor reuse (includes the ROI machinery)
  all,      ///< every mechanism armed
  count_,
};
inline constexpr int level_count = static_cast<int>(level::count_);

/// pipeline_config sentinel: defer to the process-wide requested level.
inline constexpr int kLevelInherit = -1;

[[nodiscard]] const char* level_name(level l) noexcept;

/// Parses "off" / "skip" / "roi" / "cache" / "all" (case-insensitive).
/// Throws invalid_argument otherwise.
[[nodiscard]] level parse_level(const std::string& spec);

/// Process-wide requested level (the --gate flag).  Like set_simd_level:
/// call once at startup before pipelines are constructed.
void set_level(level l) noexcept;

/// The process-wide request: the --gate flag if set, else VS_GATE (read
/// once; unknown values fail closed to off), else off.
[[nodiscard]] level requested_level() noexcept;

/// Resolves a pipeline_config request (kLevelInherit or a level ordinal)
/// against the process-wide request.
[[nodiscard]] level resolve(int request) noexcept;

/// Which mechanisms a level arms.
[[nodiscard]] constexpr bool skip_enabled(level l) noexcept {
  return l == level::skip || l == level::all;
}
[[nodiscard]] constexpr bool roi_enabled(level l) noexcept {
  return l == level::roi || l == level::cache || l == level::all;
}
[[nodiscard]] constexpr bool cache_enabled(level l) noexcept {
  return l == level::cache || l == level::all;
}

/// Tunables of the gating subsystem, carried by app::pipeline_config.
struct gate_config {
  int request = kLevelInherit;  ///< level ordinal, or kLevelInherit

  // --- frame gate (gate/change.h) ---
  int thumb_factor = 4;   ///< downsample factor of the change thumbs
  int thumb_search = 6;   ///< translation search radius (thumb pixels)
  /// Motion-compensated thumb MAD at or below this reads as "same content,
  /// merely shifted" — required for skip, together with the motion bound.
  double skip_residual = 18.0;
  /// Measured shift magnitude (full-res pixels) at or below this means the
  /// canvas gains almost nothing from processing the frame.
  double skip_motion_px = 16.0;
  /// Compensated MAD at or below this admits restricted processing; the
  /// full-resolution extrapolation check (max_residual) is authoritative.
  double delta_residual = 20.0;
  int max_consecutive_skips = 2;   ///< bound accumulated placement reuse
  int max_consecutive_deltas = 3;  ///< force a full refresh of the model

  // --- motion extrapolator (gate/extrapolate.h) ---
  int search_radius = 6;      ///< translation-correction search (pixels)
  int sample_step = 6;        ///< residual sample grid stride
  double max_residual = 24.0; ///< mean |diff| above this rejects the model
  int min_samples = 32;       ///< fewer valid residual samples rejects too
  int roi_margin = 20;        ///< ROI crop padding (>= FAST border)

  // --- descriptor cache (gate/desc_cache.h) ---
  std::size_t cache_capacity = 400;
  int cache_max_age = 4;
};

/// The gated per-run state.  Owned by the app pipeline's sequential state
/// (inside the recovery boundary's snapshot/restore), never shared across
/// threads.
struct runtime_state {
  img::image_u8 ref_thumb;     ///< thumb of the last *processed* frame
  img::image_u8 ref_frame;     ///< pixels of the last *aligned* frame (the
                               ///< extrapolator refines against them)
  bool have_ref = false;
  double last_score = 0.0;     ///< most recent change score
  int consecutive_skips = 0;
  int consecutive_deltas = 0;
  desc_cache cache;

  /// Forgets everything the gate learned (recovery retries, dead-reckoned
  /// frames and re-anchors must not trust gated state computed before the
  /// failure).  The cache keeps its capacity configuration.
  void invalidate() {
    ref_thumb = img::image_u8{};
    ref_frame = img::image_u8{};
    have_ref = false;
    last_score = 0.0;
    consecutive_skips = 0;
    consecutive_deltas = 0;
    cache.reset();
  }
};

}  // namespace vs::gate
