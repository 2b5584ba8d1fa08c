#include "image/image.h"

#include <algorithm>

#include "core/simd.h"
#include "image/blur_simd.h"
#include "image/pixel.h"

namespace vs::img {

image_u8 to_gray(const image_u8& src) {
  if (src.channels() == 1) return src;
  image_u8 out(src.width(), src.height(), 1);
  const std::uint8_t* in = src.data();
  std::uint8_t* dst = out.data();
  const std::size_t pixels = static_cast<std::size_t>(src.width()) *
                             src.height();
  for (std::size_t i = 0; i < pixels; ++i) {
    const int r = in[3 * i];
    const int g = in[3 * i + 1];
    const int b = in[3 * i + 2];
    // 0.299 R + 0.587 G + 0.114 B in 15-bit fixed point.
    dst[i] = static_cast<std::uint8_t>((9798 * r + 19235 * g + 3735 * b) >> 15);
  }
  return out;
}

image_u8 gray_to_rgb(const image_u8& src) {
  if (src.channels() == 3) return src;
  image_u8 out(src.width(), src.height(), 3);
  const std::uint8_t* in = src.data();
  std::uint8_t* dst = out.data();
  const std::size_t pixels = static_cast<std::size_t>(src.width()) *
                             src.height();
  for (std::size_t i = 0; i < pixels; ++i) {
    dst[3 * i] = dst[3 * i + 1] = dst[3 * i + 2] = in[i];
  }
  return out;
}

image_u8 downscale(const image_u8& src, int factor) {
  if (factor <= 0) throw invalid_argument("downscale: factor must be >= 1");
  if (factor == 1) return src;
  const int w = std::max(1, src.width() / factor);
  const int h = std::max(1, src.height() / factor);
  image_u8 out(w, h, src.channels());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < src.channels(); ++c) {
        out.at(x, y, c) = src.at(x * factor, y * factor, c);
      }
    }
  }
  return out;
}

namespace {

std::uint8_t blur_clamped(const image_u8& src, int x, int y) {
  int sum = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      sum += src.sample_clamped(x + dx, y + dy);
    }
  }
  return static_cast<std::uint8_t>((sum + 4) / 9);
}

}  // namespace

// Only the one-pixel frame is clamped; interior rows run the row kernel of
// the active SIMD tier, whose pixels equal the clamped sum.  The blur has no
// fault sites (orb_extract accounts its ops), so both lanes run it.
image_u8 box_blur3(const image_u8& src) {
  if (src.channels() != 1) throw invalid_argument("box_blur3: need gray");
  const int w = src.width();
  const int h = src.height();
  image_u8 out(w, h, 1);
  const simd::blur_row_fn blur_row =
      simd::select_blur_row(core::simd::active());
  const std::uint8_t* in = src.data();
  std::uint8_t* dst = out.data();
  for (int y = 0; y < h; ++y) {
    if (y == 0 || y == h - 1 || w < 3) {
      for (int x = 0; x < w; ++x) out.at(x, y) = blur_clamped(src, x, y);
      continue;
    }
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(y) * w;
    blur_row(in + row - w, in + row, in + row + w, w, dst + row);
    out.at(0, y) = blur_clamped(src, 0, y);
    out.at(w - 1, y) = blur_clamped(src, w - 1, y);
  }
  return out;
}

double mean_abs_diff(const image_u8& a, const image_u8& b) {
  if (a.size() != b.size() || a.size() == 0) {
    throw invalid_argument("mean_abs_diff: shape mismatch or empty");
  }
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<std::uint64_t>(absdiff_u8(a[i], b[i]));
  }
  return static_cast<double>(sum) / static_cast<double>(a.size());
}

std::size_t count_diff_pixels(const image_u8& a, const image_u8& b,
                              int threshold) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    throw invalid_argument("count_diff_pixels: shape mismatch");
  }
  std::size_t count = 0;
  const int ch = a.channels();
  const std::size_t pixels = static_cast<std::size_t>(a.width()) * a.height();
  for (std::size_t i = 0; i < pixels; ++i) {
    for (int c = 0; c < ch; ++c) {
      if (absdiff_u8(a[i * ch + c], b[i * ch + c]) > threshold) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace vs::img
