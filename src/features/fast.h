// FAST (Features from Accelerated Segment Test) corner detection —
// Rosten & Drummond's FAST-9/16 variant, as used by the VS application.
#pragma once

#include <vector>

#include "features/keypoint.h"
#include "image/image.h"

namespace vs::feat {

struct fast_params {
  int threshold = 10;        ///< intensity delta for the segment test
  int max_keypoints = 300;   ///< keep the strongest N after NMS
  int border = 17;           ///< keep-out margin (descriptor patch + 1)
};

/// Detects FAST-9 corners on a grayscale image, scored by fast_score and
/// thinned by 3x3 non-maximum suppression (of a tie between neighbours only
/// the earliest in raster order survives).  Keypoints are returned
/// strongest-first; ties broken by raster order for determinism.
[[nodiscard]] std::vector<keypoint> fast_detect(const img::image_u8& gray,
                                                const fast_params& params);

/// Segment-test score of a single pixel (0 when not a corner).  Exposed for
/// tests and for the detector's own scoring.
[[nodiscard]] int fast_score(const img::image_u8& gray, int x, int y,
                             int threshold);

}  // namespace vs::feat
