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

}  // namespace vs::feat
