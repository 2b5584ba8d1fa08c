// FAST-9 score rows for the clean lane.
//
// A row kernel scores a whole run of columns of one image row: it writes
// out[x] = fast_score(gray, x, y, threshold) for every x in the run, so the
// detector only has to pick up the nonzero entries.  The vector tiers
// evaluate the complete segment test in 16-bit lanes — 16 columns per step
// under AVX2, 8 under SSE4:
//
//   * load the 16 circle pixels of every column and widen them to 16 bits;
//   * compare each against center +/- threshold, OR-ing the results into
//     per-lane bright and dark bitmasks (bit i = circle pixel i) while
//     accumulating the bright and dark score sums;
//   * find a circular run of >= 9 set bits with rotate-and-AND (runs of 2,
//     4, 8, then 8 + 1), which handles arcs wrapping from index 15 to 0;
//   * keep each sum only where its arc exists and take the max, which is
//     fast_score's "both arcs -> max" rule.
//
// All of it is exact integer math (the largest sum is 16 * 254), so every
// tier writes the same scores as fast_score.  The scalar twin runs the
// 4-pixel compass pre-test and calls fast_score on the columns that pass;
// the pre-test is exact because any 9-pixel arc covers at least two
// compass points.
#pragma once

#include <cstdint>

#include "core/simd.h"
#include "image/image.h"

namespace vs::feat::simd {

/// Bresenham circle of radius 3: the 16 segment-test offsets, in order
/// (index 0 is straight up, then clockwise).
inline constexpr int circle_dx[16] = {0,  1,  2,  3,  3,  3,  2,  1,
                                      0, -1, -2, -3, -3, -3, -2, -1};
inline constexpr int circle_dy[16] = {-3, -3, -2, -1, 0, 1,  2,  3,
                                      3,  3,  2,  1,  0, -1, -2, -3};

/// Writes out[x] = fast_score(gray, x, y, threshold) for x in [x0, x1).
/// Requires a single-channel image, x0 >= 3, x1 <= width - 3 and
/// 3 <= y < height - 3 (the detector's border loop guarantees all three),
/// and threshold >= 1.
using score_row_fn = void (*)(const img::image_u8& gray, int y, int x0,
                              int x1, int threshold, std::int16_t* out);

/// Row kernel for `l`; the scalar tier gets the scalar twin.
[[nodiscard]] score_row_fn select_score_row(core::simd::level l) noexcept;

}  // namespace vs::feat::simd
