// Dense row-major images with 1 (grayscale) or 3 (RGB) interleaved channels.
//
// This is the pixel container used throughout the pipeline — the stand-in
// for cv::Mat in the paper's OpenCV 2.4.9 implementation.  Element access in
// the public API is bounds-asserted in debug builds; the instrumented
// kernels perform their own guarded address arithmetic through rt::idx so
// injected faults produce realistic memory behaviour.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/error.h"

namespace vs::img {

template <typename T>
class basic_image {
 public:
  basic_image() = default;

  /// Allocates a width x height image with `channels` interleaved channels,
  /// zero-initialized.
  basic_image(int width, int height, int channels = 1, T fill = T{})
      : width_(width), height_(height), channels_(channels) {
    if (width < 0 || height < 0 || (channels != 1 && channels != 3)) {
      throw invalid_argument("basic_image: bad dimensions");
    }
    data_.assign(static_cast<std::size_t>(width) * height * channels, fill);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  [[nodiscard]] bool in_bounds(int x, int y) const noexcept {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  /// Flat element index of (x, y, c).
  [[nodiscard]] std::size_t offset(int x, int y, int c = 0) const noexcept {
    return (static_cast<std::size_t>(y) * width_ + x) * channels_ + c;
  }

  T& at(int x, int y, int c = 0) {
    assert(in_bounds(x, y) && c >= 0 && c < channels_);
    return data_[offset(x, y, c)];
  }
  const T& at(int x, int y, int c = 0) const {
    assert(in_bounds(x, y) && c >= 0 && c < channels_);
    return data_[offset(x, y, c)];
  }

  /// Clamp-to-edge sample (used by detectors near borders).
  [[nodiscard]] T sample_clamped(int x, int y, int c = 0) const {
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return data_[offset(x, y, c)];
  }

  /// Raw flat access (tests and metric code).
  T& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  void fill(T value) { data_.assign(data_.size(), value); }

  bool operator==(const basic_image& other) const noexcept {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_ && data_ == other.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int channels_ = 1;
  std::vector<T> data_;
};

using image_u8 = basic_image<std::uint8_t>;
using image_f32 = basic_image<float>;

/// FNV-1a digest over an image's shape and pixel bytes — what the
/// composite replica (resil::verify_replica) compares.  Not cryptographic;
/// a 64-bit accidental collision between a corrupted and a clean buffer is
/// negligible next to the fault rates being measured.
template <class T>
[[nodiscard]] std::uint64_t digest(const basic_image<T>& image) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(image.width()));
  mix(static_cast<std::uint64_t>(image.height()));
  mix(static_cast<std::uint64_t>(image.channels()));
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  const std::size_t n = image.size() * sizeof(T);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Grayscale conversion (ITU-R BT.601 luma weights, integer arithmetic).
[[nodiscard]] image_u8 to_gray(const image_u8& src);

/// Replicate a single-channel image into RGB.
[[nodiscard]] image_u8 gray_to_rgb(const image_u8& src);

/// Nearest-neighbour downscale by integer factor (the paper's 3x temporal /
/// spatial downsampling analog for stills).
[[nodiscard]] image_u8 downscale(const image_u8& src, int factor);

/// 3x3 box blur (grayscale), edges clamped.  BRIEF-style descriptors require
/// a smoothed image: without it, sensor noise flips comparison bits and
/// destroys matchability (Calonder et al. 2010).
[[nodiscard]] image_u8 box_blur3(const image_u8& src);

/// Mean absolute per-pixel difference between two same-shaped images.
[[nodiscard]] double mean_abs_diff(const image_u8& a, const image_u8& b);

/// Count of pixels whose absolute difference exceeds `threshold` in any
/// channel.
[[nodiscard]] std::size_t count_diff_pixels(const image_u8& a,
                                            const image_u8& b, int threshold);

}  // namespace vs::img
