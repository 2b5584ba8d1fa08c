// ORB descriptors: intensity-centroid orientation + rotated BRIEF
// (Rublee et al., ICCV 2011), over FAST keypoints.  Single-scale, as in the
// VS application, and keypoints keep their FAST segment-test score.
#pragma once

#include <vector>

#include "features/fast.h"
#include "features/keypoint.h"
#include "image/image.h"

namespace vs::feat {

struct orb_params {
  fast_params fast;   ///< detector configuration
  int patch_radius = 7;  ///< sampling patch half-size for BRIEF pairs
};

/// Computes the intensity-centroid orientation (radians) of the patch
/// around (x, y).  Exposed for tests.
[[nodiscard]] float intensity_centroid_angle(const img::image_u8& gray, int x,
                                             int y, int radius);

/// Computes the 256-bit rotated-BRIEF descriptor of one oriented keypoint
/// (the body orb_extract runs per keypoint).  Exposed for tests.
[[nodiscard]] descriptor orb_describe_one(const img::image_u8& gray,
                                          const keypoint& kp,
                                          int patch_radius);

/// Detects FAST keypoints and describes them with ORB.
/// The one-stop feature extractor used by the VS pipeline.
[[nodiscard]] frame_features orb_extract(const img::image_u8& gray,
                                         const orb_params& params);

/// Dual-execution check of an extraction product (the detect/describe
/// stages' replication contract): re-derives every reported keypoint's
/// score, quantized orientation, and descriptor *at its stored
/// coordinates* on the hook-free lane and compares against the stored
/// fields.  The full-frame corner search is not repeated — scoring a few
/// hundred keypoints is O(keypoints) against the detector's O(pixels) — so
/// a fault that invents a well-formed keypoint the search would never have
/// emitted can escape, but any fault that perturbs a stored coordinate,
/// score, angle, or descriptor bit of a real detection diverges (the score
/// is recomputed at the stored position, so corrupt coordinates mismatch
/// too).  Returns false on the first disagreement.  Intended to run inside
/// a replica context.
[[nodiscard]] bool orb_verify_features(const img::image_u8& gray,
                                       const frame_features& features,
                                       const orb_params& params);

}  // namespace vs::feat
