// Interior rows of the 3x3 box blur (both lanes: the blur has no hooks).
//
// Away from the image edge no sample needs clamping, so a row is a plain
// 3-row by 3-column sum over direct row pointers.  The vector tiers sum in
// 16-bit lanes (the largest sum, 9 * 255 + 4 = 2299, fits) — 16 columns per
// step under AVX2, 8 under SSE4 — and divide by 9 with a 16-bit
// multiply-high, which is exact over that range (div9 below; the tests
// check every input).  The scalar twin is the same sum in plain C++.
// Edge rows and columns stay on box_blur3's clamped path.
#pragma once

#include <cstdint>

#include "core/simd.h"

namespace vs::img::simd {

/// Largest dividend the blur produces: (9 * 255) + the rounding 4.
inline constexpr std::uint32_t div9_max = 9 * 255 + 4;

/// Multiplier with (n * div9_multiplier) >> 16 == n / 9 for n <= div9_max.
inline constexpr std::uint32_t div9_multiplier = 7282;

/// n / 9 as the vector kernels compute it (a 16-bit multiply-high).
[[nodiscard]] constexpr std::uint32_t div9(std::uint32_t n) noexcept {
  return (n * div9_multiplier) >> 16;
}

/// Writes out[x] = (sum of the 3x3 neighbourhood + 4) / 9 for every
/// x in [1, width - 1), where `above`, `row` and `below` are three
/// consecutive image rows of `width` pixels.
using blur_row_fn = void (*)(const std::uint8_t* above, const std::uint8_t* row,
                             const std::uint8_t* below, int width,
                             std::uint8_t* out);

/// Row kernel for `l`; the scalar tier gets the scalar twin.
[[nodiscard]] blur_row_fn select_blur_row(core::simd::level l) noexcept;

}  // namespace vs::img::simd
