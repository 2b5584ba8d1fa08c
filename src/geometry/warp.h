// warpPerspective / remapBilinear — the hot functions of the VS application.
//
// The paper's profile (Fig 8) attributes 54.4% of execution time to
// WarpPerspectiveInvoker; its hot-function case study (Figs 11b) injects
// faults exclusively inside warpPerspectiveInvoker and remapBilinear.  This
// module reproduces the OpenCV structure: an invoker that computes source
// coordinates per destination pixel in double precision (rt::fn::warp), and
// a fixed-point bilinear remap (rt::fn::remap) that interpolates 8-bit
// pixels with 5-bit fractional weights and saturates the result.
#pragma once

#include <optional>

#include "geometry/mat3.h"
#include "image/image.h"
#include "rt/instrument.h"

namespace vs::geo {

/// Integer pixel rectangle (half-open: [x0, x0+w) x [y0, y0+h)).
struct rect {
  int x0 = 0;
  int y0 = 0;
  int w = 0;
  int h = 0;

  [[nodiscard]] bool empty() const noexcept { return w <= 0 || h <= 0; }
  [[nodiscard]] long long area() const noexcept {
    return empty() ? 0 : static_cast<long long>(w) * h;
  }
  bool operator==(const rect&) const = default;
};

/// Union of two rects (empty rects are identity).
[[nodiscard]] rect rect_union(const rect& a, const rect& b) noexcept;

/// Intersection (may be empty).
[[nodiscard]] rect rect_intersect(const rect& a, const rect& b) noexcept;

/// Axis-aligned integer bounds of the four src-image corners mapped through
/// `h`.  nullopt when any corner maps to a non-finite / absurd coordinate
/// (|coord| > coord_limit) — the stitcher discards such frames.
[[nodiscard]] std::optional<rect> projected_bounds(
    const mat3& h, int width, int height, double coord_limit = 1e7);

/// A warped image fragment positioned at (x0, y0) in destination space.
/// `valid` is a per-pixel coverage mask (255 = pixel was produced).
struct warped_patch {
  img::image_u8 pixels;
  img::image_u8 valid;
  int x0 = 0;
  int y0 = 0;
};

/// Warps `src` through homography `h` into the destination rectangle
/// `out_rect` using inverse mapping + fixed-point bilinear interpolation.
/// Pixels whose preimage falls outside `src` are left zero with valid == 0.
/// Works for 1- and 3-channel images.
[[nodiscard]] warped_patch warp_perspective(const img::image_u8& src,
                                            const mat3& h,
                                            const rect& out_rect);

/// Bilinear sample of `src` at floating-point coordinates using the same
/// fixed-point arithmetic as warp_perspective.  Returns nullopt outside the
/// interpolation domain.  `H` is the hook policy (rt/instrument.h) of the
/// caller's lane: rt::live routes the loads and the accumulator through
/// their fault sites, rt::inert is the clean lane's hook-free copy.
template <class H = rt::live>
[[nodiscard]] std::optional<std::uint8_t> sample_bilinear(
    const img::image_u8& src, double x, double y, int channel = 0);

extern template std::optional<std::uint8_t> sample_bilinear<rt::live>(
    const img::image_u8&, double, double, int);
extern template std::optional<std::uint8_t> sample_bilinear<rt::inert>(
    const img::image_u8&, double, double, int);

}  // namespace vs::geo
