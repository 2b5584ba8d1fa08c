// The frame gate: cheap downsampled inter-frame change detection
// (arXiv 1901.09287 §summarization-on-commodity-hardware).  A block-mean
// thumbnail of every acquired frame is compared against the thumbnail of
// the last *processed* frame with a small translation search (the clips
// are aerial pans — raw differencing would read steady camera motion as
// total change).  The search yields two decision values:
//
//   * the motion-compensated mean absolute difference (scene consistency:
//     low means the view is the same content, merely shifted),
//   * the best-matching shift (motion magnitude since the last processed
//     frame, in full-resolution pixels — and the translation prior the
//     extrapolator refines, which is how delta frames bridge the gap
//     across any number of skipped frames).
//
// Classification: small shift + low residual => skip (the canvas already
// shows this content), low residual alone => delta (restricted
// processing), anything else => full.
//
// The score runs in the instrumented lane under rt::fn::gate — the
// accumulated difference, the chosen shift and the classification branch
// are fault sites like any stage kernel, which is the whole point: the
// campaign measures what a strike on the gating decision does to the
// summary.
#pragma once

#include "gate/gate.h"
#include "image/image.h"

namespace vs::gate {

/// Frame classes in increasing processing cost.
enum class frame_class : std::uint8_t {
  skip = 0,  ///< near-duplicate: reuse the previous stitch placement
  delta,     ///< restricted processing (extrapolated alignment, ROI extract)
  full,      ///< the exact pipeline
};

/// Block-mean downsampled thumbnail (`factor` x `factor` blocks, integer
/// arithmetic).  Deterministic and hook-free: the thumb is data movement;
/// the score below is the gated decision value.
[[nodiscard]] img::image_u8 make_thumb(const img::image_u8& frame,
                                       int factor);

/// The frame gate's decision values.  `score` is the motion-compensated
/// thumb MAD; `raw` the uncompensated (zero-shift) MAD; `shift_x/y` the
/// best-matching displacement of the reference content in the current
/// frame, already scaled to full-resolution pixels (reference -> current
/// motion; the extrapolation prior is its inverse).
struct change_stats {
  double score = 255.0;
  double raw = 255.0;
  int shift_x = 0;
  int shift_y = 0;
  friend bool operator==(const change_stats&, const change_stats&) = default;
};

/// Translation-searched thumb difference, computed in the instrumented
/// lane (rt::fn::gate scope; per-row g32 hooks on the zero-shift pass,
/// g32 on the chosen shift, final f64 on the compensated score).  The
/// search covers shifts in [-radius, radius]^2 thumb pixels, row-major
/// first-minimum tie-break (exact integer cross-multiplied mean compare),
/// and `factor` converts the winning shift to full-resolution pixels.
/// Mismatched geometry scores maximally different.
[[nodiscard]] change_stats change_score(const img::image_u8& cur,
                                        const img::image_u8& ref, int radius,
                                        int factor);

/// Hook-free recomputation of change_score, the reference the tests hold
/// it to: bitwise-identical integer accumulation and the same final
/// divisions.
[[nodiscard]] change_stats change_score_clean(const img::image_u8& cur,
                                              const img::image_u8& ref,
                                              int radius, int factor);

/// Classifies the decision values against the configured thresholds.
/// `can_skip` and `can_delta` gate the cheap classes on mechanism
/// availability (level, reference/motion state, streak bounds); the
/// classification branch flows through an rt::ctrl hook.
[[nodiscard]] frame_class classify(const change_stats& stats,
                                   const gate_config& cfg, bool can_skip,
                                   bool can_delta);

}  // namespace vs::gate
