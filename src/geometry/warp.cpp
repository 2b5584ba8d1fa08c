#include "geometry/warp.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "geometry/warp_simd.h"
#include "image/pixel.h"
#include "rt/instrument.h"

namespace vs::geo {

namespace {

// OpenCV-compatible fixed-point interpolation parameters.
constexpr int inter_bits = 5;
constexpr int inter_scale = 1 << inter_bits;          // 32
constexpr int inter_round = 1 << (2 * inter_bits - 1);  // rounding bias

}  // namespace

rect rect_union(const rect& a, const rect& b) noexcept {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const int x0 = std::min(a.x0, b.x0);
  const int y0 = std::min(a.y0, b.y0);
  const int x1 = std::max(a.x0 + a.w, b.x0 + b.w);
  const int y1 = std::max(a.y0 + a.h, b.y0 + b.h);
  return {x0, y0, x1 - x0, y1 - y0};
}

rect rect_intersect(const rect& a, const rect& b) noexcept {
  const int x0 = std::max(a.x0, b.x0);
  const int y0 = std::max(a.y0, b.y0);
  const int x1 = std::min(a.x0 + a.w, b.x0 + b.w);
  const int y1 = std::min(a.y0 + a.h, b.y0 + b.h);
  if (x1 <= x0 || y1 <= y0) return {};
  return {x0, y0, x1 - x0, y1 - y0};
}

std::optional<rect> projected_bounds(const mat3& h, int width, int height,
                                     double coord_limit) {
  if (width <= 0 || height <= 0) return std::nullopt;
  const vec2 corners[4] = {{0.0, 0.0},
                           {static_cast<double>(width), 0.0},
                           {0.0, static_cast<double>(height)},
                           {static_cast<double>(width),
                            static_cast<double>(height)}};
  double min_x = 1e300;
  double min_y = 1e300;
  double max_x = -1e300;
  double max_y = -1e300;
  for (const vec2 c : corners) {
    const vec2 p = h.apply(c);
    if (!std::isfinite(p.x) || !std::isfinite(p.y) ||
        std::abs(p.x) > coord_limit || std::abs(p.y) > coord_limit) {
      return std::nullopt;
    }
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const int x0 = static_cast<int>(std::floor(min_x));
  const int y0 = static_cast<int>(std::floor(min_y));
  const int x1 = static_cast<int>(std::ceil(max_x));
  const int y1 = static_cast<int>(std::ceil(max_y));
  return rect{x0, y0, x1 - x0, y1 - y0};
}

namespace {

// remapBilinear: fixed-point interpolation of one pixel.  `fx`/`fy` are the
// integer source coordinates scaled by inter_scale.  On the instrumented
// lane the source reads go through guarded address arithmetic (H::idx) so an
// injected index fault behaves like a real wild load, and the accumulated
// value passes one GPR data site before saturation.
template <class H>
inline std::uint8_t remap_one(const img::image_u8& src, int sx, int sy,
                              int wx, int wy, int channel) {
  const int ch = src.channels();
  const auto stride = static_cast<std::int64_t>(src.width()) * ch;
  const std::int64_t base =
      static_cast<std::int64_t>(sy) * stride +
      static_cast<std::int64_t>(sx) * ch + channel;
  const std::size_t n = src.size();
  const std::uint8_t* d = src.data();
  const int p00 = d[H::idx(base, n)];
  const int p10 = d[H::idx(base + ch, n)];
  const int p01 = d[H::idx(base + stride, n)];
  const int p11 = d[H::idx(base + stride + ch, n)];
  const int w00 = (inter_scale - wx) * (inter_scale - wy);
  const int w10 = wx * (inter_scale - wy);
  const int w01 = (inter_scale - wx) * wy;
  const int w11 = wx * wy;
  const int acc = H::g32(p00 * w00 + p10 * w10 + p01 * w01 + p11 * w11);
  H::account(rt::op::int_alu, 10);
  return img::saturate_u8((acc + inter_round) >> (2 * inter_bits));
}

// One destination row of the warp, the body both lanes run: the clean lane
// as warp_row<rt::inert> on row bands without a SIMD row kernel, the
// instrumented lane as warp_row<rt::live> over every row, with each
// register-resident value routed through its fault site.
template <class H>
void warp_row(const img::image_u8& src, const mat3& m, const rect& out_rect,
              int y, warped_patch& out) {
  const int channels = src.channels();
  // Interpolation domain: [0, width-1) x [0, height-1) so that the 2x2
  // neighbourhood is fully inside the image.
  const double max_sx = src.width() - 1.0;
  const double max_sy = src.height() - 1.0;
  const int out_w = out.pixels.width();
  const std::size_t out_n = out.valid.size();
  std::uint8_t* valid_data = out.valid.data();
  std::uint8_t* pixel_data = out.pixels.data();
  // Integer-coordinate convention, as cv::warpPerspective: destination
  // pixel (x, y) maps through H^-1 directly (keypoints and homographies
  // use the same convention, so warped content lands where the estimated
  // model says it does).
  const double dy = out_rect.y0 + y;
  // Incremental evaluation along the row, as warpPerspectiveInvoker does:
  // numerators and denominator are linear in x.
  double num_x = m(0, 0) * out_rect.x0 + m(0, 1) * dy + m(0, 2);
  double num_y = m(1, 0) * out_rect.x0 + m(1, 1) * dy + m(1, 2);
  double den = m(2, 0) * out_rect.x0 + m(2, 1) * dy + m(2, 2);
  // The row's iteration bound lives in a register for the whole row — a
  // control fault site; a corrupted bound overruns the row, which the
  // guarded destination writes below convert into a wild store or, when
  // the preimage check keeps skipping, a watchdog hang.
  const auto row_limit = static_cast<std::int64_t>(H::ctrl(out_w));
  for (std::int64_t x = 0; x < row_limit; ++x) {
    // The induction variable itself is register-resident: expose it as a
    // (sparse) control fault site.  A backward-corrupted x re-runs the
    // row until the watchdog declares a hang; a forward-corrupted x
    // truncates the row.
    if ((x & 255) == 255) x = H::ctrl(x);
    const double inv_den = den != 0.0 ? 1.0 / den : 0.0;
    // Source coordinates are the FPR fault sites of the hot function.
    const double sx = H::f64(num_x * inv_den);
    const double sy = H::f64(num_y * inv_den);
    H::account(rt::op::fp_alu, 12);  // incl. the per-pixel divide
    num_x += m(0, 0);
    num_y += m(1, 0);
    den += m(2, 0);
    // The preimage guard tests the already-incremented denominator; the
    // SIMD row kernels keep that quirk.
    if (den == 0.0 || !(sx >= 0.0) || !(sy >= 0.0) || sx >= max_sx ||
        sy >= max_sy) {
      continue;  // preimage outside the interpolation domain
    }
    typename H::scope remap_scope(rt::fn::remap);
    const auto fx = static_cast<int>(sx * inter_scale);
    const auto fy = static_cast<int>(sy * inter_scale);
    const int ix = fx >> inter_bits;
    const int iy = fy >> inter_bits;
    const int wx = fx & (inter_scale - 1);
    const int wy = fy & (inter_scale - 1);
    const std::size_t dst =
        H::idx(static_cast<std::int64_t>(y) * out_w + x, out_n);
    for (int c = 0; c < channels; ++c) {
      pixel_data[dst * channels + c] = remap_one<H>(src, ix, iy, wx, wy, c);
    }
    valid_data[dst] = 255;
    H::account(rt::op::mem, 2);
  }
  H::account(rt::op::branch, static_cast<std::uint64_t>(out_w));
}

// Clean lane: the destination rows are independent (each recomputes its
// incremental numerators from the row coordinate), so the warp tiles over
// row bands of warp_row<rt::inert>.  With a SIMD row kernel available, each
// row's incremental chains are materialized into buffers by the same scalar
// additions and the per-pixel expression tree runs four lanes at a time
// (IEEE div/mul/compare are lane-exact, the interpolation is integer),
// which keeps the bytes identical at every SIMD level.
void warp_rows_clean(const img::image_u8& src, const mat3& m,
                     const rect& out_rect, warped_patch& out) {
  const double max_sx = src.width() - 1.0;
  const double max_sy = src.height() - 1.0;
  const int out_w = out.pixels.width();
  const simd::warp_row_fn row_fn =
      simd::select_warp_row(core::simd::active(), src.channels());

  core::thread_pool::current().parallel_for(
      0, out.pixels.height(), 8,
      [&](std::int64_t y0, std::int64_t y1, std::size_t) {
        if (row_fn == nullptr) {
          for (int y = static_cast<int>(y0); y < y1; ++y) {
            warp_row<rt::inert>(src, m, out_rect, y, out);
          }
          return;
        }
        std::vector<double> buf_num_x(static_cast<std::size_t>(out_w));
        std::vector<double> buf_num_y(static_cast<std::size_t>(out_w));
        std::vector<double> buf_den(static_cast<std::size_t>(out_w) + 1);
        for (int y = static_cast<int>(y0); y < y1; ++y) {
          const double dy = out_rect.y0 + y;
          double num_x = m(0, 0) * out_rect.x0 + m(0, 1) * dy + m(0, 2);
          double num_y = m(1, 0) * out_rect.x0 + m(1, 1) * dy + m(1, 2);
          double den = m(2, 0) * out_rect.x0 + m(2, 1) * dy + m(2, 2);
          // Materialize the incremental chains (identical additions in
          // identical order), then hand the row to the SIMD kernel.
          for (int x = 0; x < out_w; ++x) {
            buf_num_x[static_cast<std::size_t>(x)] = num_x;
            buf_num_y[static_cast<std::size_t>(x)] = num_y;
            buf_den[static_cast<std::size_t>(x)] = den;
            num_x += m(0, 0);
            num_y += m(1, 0);
            den += m(2, 0);
          }
          buf_den[static_cast<std::size_t>(out_w)] = den;
          const std::size_t row =
              static_cast<std::size_t>(y) * static_cast<std::size_t>(out_w);
          row_fn(buf_num_x.data(), buf_num_y.data(), buf_den.data(), out_w,
                 max_sx, max_sy, src.data(), src.width(),
                 out.pixels.data() + row, out.valid.data() + row);
        }
      });
}

}  // namespace

warped_patch warp_perspective(const img::image_u8& src, const mat3& h,
                              const rect& out_rect) {
  if (src.empty()) throw invalid_argument("warp_perspective: empty source");
  const auto inv = h.inverse();

  // Canvas allocation goes through the abort gate: a corrupted dimension
  // that demands an absurd buffer is the paper's "library abort" crash.
  constexpr std::size_t max_pixels = std::size_t{1} << 26;  // 64M elements
  const std::size_t w =
      rt::alloc_size(out_rect.w, 1 << 20);
  const std::size_t hgt =
      rt::alloc_size(out_rect.h, 1 << 20);
  rt::alloc_size(static_cast<std::int64_t>(w) * static_cast<std::int64_t>(hgt) *
                     src.channels(),
                 max_pixels);

  warped_patch out;
  out.x0 = out_rect.x0;
  out.y0 = out_rect.y0;
  out.pixels = img::image_u8(static_cast<int>(w), static_cast<int>(hgt),
                             src.channels());
  out.valid = img::image_u8(static_cast<int>(w), static_cast<int>(hgt), 1);
  if (!inv) return out;  // singular homography: nothing lands

  core::dispatch([&] { warp_rows_clean(src, *inv, out_rect, out); },
                 [&] {
                   rt::scope warp_scope(rt::fn::warp);
                   for (int y = 0; y < out.pixels.height(); ++y) {
                     warp_row<rt::live>(src, *inv, out_rect, y, out);
                   }
                 });
  return out;
}

template <class H>
std::optional<std::uint8_t> sample_bilinear(const img::image_u8& src, double x,
                                            double y, int channel) {
  if (src.empty() || channel < 0 || channel >= src.channels()) {
    return std::nullopt;
  }
  if (!(x >= 0.0) || !(y >= 0.0) || x >= src.width() - 1.0 ||
      y >= src.height() - 1.0) {
    return std::nullopt;
  }
  const auto fx = static_cast<int>(x * inter_scale);
  const auto fy = static_cast<int>(y * inter_scale);
  return remap_one<H>(src, fx >> inter_bits, fy >> inter_bits,
                      fx & (inter_scale - 1), fy & (inter_scale - 1), channel);
}

template std::optional<std::uint8_t> sample_bilinear<rt::live>(
    const img::image_u8&, double, double, int);
template std::optional<std::uint8_t> sample_bilinear<rt::inert>(
    const img::image_u8&, double, double, int);

}  // namespace vs::geo
