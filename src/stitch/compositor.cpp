#include "stitch/compositor.h"

#include <algorithm>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "image/pixel.h"
#include "rt/instrument.h"
#include "stitch/compositor_simd.h"

namespace vs::stitch {

namespace {

// The bodies below are each written once and run by both lanes: the clean
// lane instantiates them with rt::inert on its row bands, the instrumented
// lane with rt::live over every row (rt/instrument.h).

// Copies row y of the old canvas into the grown one at (off_x, off_y).
template <class H>
void blit_row(const img::image_u8& pixels, const img::image_u8& mask, int y,
              int off_x, int off_y, img::image_u8& new_pixels,
              img::image_u8& new_mask) {
  for (int x = 0; x < pixels.width(); ++x) {
    new_pixels.at(x + off_x, y + off_y) = pixels.at(x, y);
    new_mask.at(x + off_x, y + off_y) = mask.at(x, y);
  }
  // Row blits are wide vector copies: ~1 dynamic op per 4 pixels.
  H::account(rt::op::mem, static_cast<std::uint64_t>(pixels.width()) / 4);
}

// Canvas offset of patch row y's first pixel.
std::int64_t canvas_row(const geo::warped_patch& patch, const geo::rect& bounds,
                        int canvas_w, int y) {
  return static_cast<std::int64_t>(patch.y0 - bounds.y0 + y) * canvas_w +
         (patch.x0 - bounds.x0);
}

// Exposure compensation: the gain that matches the patch's mean to the
// canvas's over the overlap region, clamped to a modest range.  Sequential
// in both lanes: the floating-point accumulation order is part of the
// blended bytes.
template <class H>
double exposure_gain(const geo::warped_patch& patch, const geo::rect& bounds,
                     const img::image_u8& pixels, const img::image_u8& mask) {
  const std::size_t n = pixels.size();
  const std::uint8_t* dst = pixels.data();
  const std::uint8_t* cov = mask.data();
  double sum_patch = 0.0;
  double sum_canvas = 0.0;
  std::size_t overlap = 0;
  for (int y = 0; y < patch.pixels.height(); ++y) {
    const std::int64_t row_base = canvas_row(patch, bounds, pixels.width(), y);
    for (int x = 0; x < patch.pixels.width(); ++x) {
      if (patch.valid.at(x, y) == 0) continue;
      const std::size_t at = H::idx(row_base + x, n);
      if (cov[at] == 0) continue;
      sum_patch += patch.pixels.at(x, y);
      sum_canvas += dst[at];
      ++overlap;
    }
  }
  H::account(rt::op::fp_alu, overlap);
  if (overlap > 64 && sum_patch > 0.0) {
    return std::clamp(sum_canvas / sum_patch, 0.7, 1.4);
  }
  return 1.0;
}

// Paints patch row y at canvas offset `row_base` and appends each pixel it
// overwrites to `seams`.  On the instrumented lane the destination index is
// address arithmetic in flight: a guarded GPR fault site per pixel.
template <class H>
void paint_row(const geo::warped_patch& patch, int y, std::int64_t row_base,
               double gain, img::image_u8& pixels, img::image_u8& mask,
               std::vector<std::size_t>& seams) {
  const std::size_t n = pixels.size();
  std::uint8_t* dst = pixels.data();
  std::uint8_t* cov = mask.data();
  const int patch_w = patch.pixels.width();
  for (int x = 0; x < patch_w; ++x) {
    if (patch.valid.at(x, y) == 0) continue;
    const std::size_t at = H::idx(row_base + x, n);
    // Unreachable after ensure(); rt::live already traps it, and this is the
    // same library-bug trap for rt::inert.
    if (at >= n) rt::detail::raise_logic_oob(row_base + x, n);
    if (cov[at] == 1) seams.push_back(at);  // overwrites old
    dst[at] = gain == 1.0 ? patch.pixels.at(x, y)
                          : img::saturate_u8(gain * patch.pixels.at(x, y));
    cov[at] = 2;  // newest generation (feather_seams demotes it to 1)
  }
  H::account(rt::op::mem, static_cast<std::uint64_t>(patch_w));
  H::account(rt::op::branch, static_cast<std::uint64_t>(patch_w));
}

// Smooths every overwrite-boundary pixel (recorded during blend) whose
// neighbourhood still contains older content, with the mean of its written
// 3x3 neighbours.  Sequential in both lanes: a seam pixel's mean may read
// neighbours smoothed earlier in the list, so iteration order is part of
// the output.
template <class H>
void smooth_seams(const std::vector<std::size_t>& seams,
                  const img::image_u8& mask, img::image_u8& pixels) {
  const int w = pixels.width();
  const int h = pixels.height();
  const std::size_t n = pixels.size();
  const std::uint8_t* cov = mask.data();
  std::uint8_t* dst = pixels.data();
  for (const std::size_t at : seams) {
    const int x = static_cast<int>(at % static_cast<std::size_t>(w));
    const int y = static_cast<int>(at / static_cast<std::size_t>(w));
    const bool seam =
        (x > 0 && cov[at - 1] == 1) || (x + 1 < w && cov[at + 1] == 1) ||
        (y > 0 && cov[at - static_cast<std::size_t>(w)] == 1) ||
        (y + 1 < h && cov[at + static_cast<std::size_t>(w)] == 1);
    if (!seam) continue;
    int sum = 0;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int nx = x + dx;
        const int ny = y + dy;
        if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
        const std::size_t neighbour =
            H::idx(static_cast<std::int64_t>(ny) * w + nx, n);
        if (cov[neighbour] == 0) continue;
        sum += dst[neighbour];
        ++count;
      }
    }
    if (count > 0) {
      dst[at] = static_cast<std::uint8_t>((sum + count / 2) / count);
    }
  }
  H::account(rt::op::int_alu, seams.size() * 6);
  H::account(rt::op::branch, seams.size() * 2);
}

}  // namespace

compositor::compositor(std::size_t max_pixels) : max_pixels_(max_pixels) {}

bool compositor::ensure(const geo::rect& world_rect) {
  if (world_rect.empty()) return true;
  const geo::rect merged =
      pixels_.empty() ? world_rect : geo::rect_union(bounds_, world_rect);
  if (merged == bounds_ && !pixels_.empty()) return true;
  const auto area = merged.area();
  if (area <= 0 || static_cast<std::size_t>(area) > max_pixels_) return false;

  rt::scope attributed(rt::fn::stitch);
  const auto w = rt::alloc_size(merged.w, 1 << 20);
  const auto h = rt::alloc_size(merged.h, 1 << 20);
  img::image_u8 new_pixels(static_cast<int>(w), static_cast<int>(h), 1);
  img::image_u8 new_mask(static_cast<int>(w), static_cast<int>(h), 1);

  if (!pixels_.empty()) {
    // Blit the old canvas into its position inside the grown one.
    const int off_x = bounds_.x0 - merged.x0;
    const int off_y = bounds_.y0 - merged.y0;
    core::dispatch(
        [&] {
          // Clean lane: rows land in disjoint destination rows.
          core::thread_pool::current().parallel_for(
              0, pixels_.height(), 64,
              [&](std::int64_t y0, std::int64_t y1, std::size_t) {
                for (int y = static_cast<int>(y0); y < y1; ++y) {
                  blit_row<rt::inert>(pixels_, mask_, y, off_x, off_y,
                                      new_pixels, new_mask);
                }
              });
        },
        [&] {
          for (int y = 0; y < pixels_.height(); ++y) {
            blit_row<rt::live>(pixels_, mask_, y, off_x, off_y, new_pixels,
                               new_mask);
          }
        });
  }
  pixels_ = std::move(new_pixels);
  mask_ = std::move(new_mask);
  bounds_ = merged;
  return true;
}

void compositor::blend(const geo::warped_patch& patch, bool gain_compensate) {
  if (patch.pixels.empty()) return;
  if (pixels_.empty()) {
    throw invalid_argument("compositor::blend: ensure() the canvas first");
  }
  core::dispatch([&] { blend_clean(patch, gain_compensate); },
                 [&] {
                   rt::scope attributed(rt::fn::stitch);
                   const double gain =
                       gain_compensate
                           ? exposure_gain<rt::live>(patch, bounds_, pixels_,
                                                     mask_)
                           : 1.0;
                   for (int y = 0; y < patch.pixels.height(); ++y) {
                     paint_row<rt::live>(
                         patch, y,
                         canvas_row(patch, bounds_, pixels_.width(), y), gain,
                         pixels_, mask_, seam_candidates_);
                   }
                 });
}

void compositor::blend_clean(const geo::warped_patch& patch,
                             bool gain_compensate) {
  const double gain =
      gain_compensate
          ? exposure_gain<rt::inert>(patch, bounds_, pixels_, mask_)
          : 1.0;

  // Paint pass: patch rows map to disjoint canvas rows, so row bands fan
  // out; per-band seam-candidate lists concatenated in band order reproduce
  // the sequential discovery order that feather_seams depends on.
  const std::size_t n = pixels_.size();
  const int patch_h = patch.pixels.height();
  const int patch_w = patch.pixels.width();
  constexpr std::int64_t blend_band = 32;
  const std::size_t bands =
      core::thread_pool::chunk_count(0, patch_h, blend_band);
  std::vector<std::vector<std::size_t>> band_seams(bands);
  // Unit gain (the default) is a masked byte copy, so it has a SIMD row
  // kernel; rows only use it once proven in-bounds, which keeps the scalar
  // row's library-bug trap for the unreachable overflow case.
  const simd::blend_row_fn blend_row =
      gain == 1.0 && patch.pixels.channels() == 1 &&
              patch.valid.channels() == 1
          ? simd::select_blend_row(core::simd::active())
          : nullptr;
  core::thread_pool::current().parallel_for(
      0, patch_h, blend_band,
      [&](std::int64_t y0, std::int64_t y1, std::size_t band) {
        auto& seams = band_seams[band];
        for (int y = static_cast<int>(y0); y < y1; ++y) {
          const std::int64_t row_base =
              canvas_row(patch, bounds_, pixels_.width(), y);
          if (blend_row != nullptr && row_base >= 0 &&
              static_cast<std::size_t>(row_base) + patch_w <= n) {
            const auto row = static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(patch_w);
            blend_row(patch.pixels.data() + row, patch.valid.data() + row,
                      pixels_.data(), mask_.data(),
                      static_cast<std::size_t>(row_base), patch_w, seams);
            continue;
          }
          paint_row<rt::inert>(patch, y, row_base, gain, pixels_, mask_,
                               seams);
        }
      });
  for (const auto& seams : band_seams) {
    seam_candidates_.insert(seam_candidates_.end(), seams.begin(),
                            seams.end());
  }
}

void compositor::feather_seams() {
  if (pixels_.empty()) return;
  const std::size_t n = pixels_.size();
  std::uint8_t* mask_data = mask_.data();
  core::dispatch(
      [&] {
        smooth_seams<rt::inert>(seam_candidates_, mask_, pixels_);
        // The newest generation becomes old content: the O(canvas) part,
        // which fans out.
        for (const std::size_t at : seam_candidates_) mask_data[at] = 1;
        const simd::demote_fn demote =
            simd::select_demote(core::simd::active());
        core::thread_pool::current().parallel_for(
            0, static_cast<std::int64_t>(n), 1 << 16,
            [&](std::int64_t i0, std::int64_t i1, std::size_t) {
              if (demote != nullptr) {
                demote(mask_data + i0, static_cast<std::size_t>(i1 - i0));
                return;
              }
              for (std::int64_t i = i0; i < i1; ++i) {
                if (mask_data[i] == 2) mask_data[i] = 1;
              }
            });
      },
      [&] {
        rt::scope attributed(rt::fn::stitch);
        smooth_seams<rt::live>(seam_candidates_, mask_, pixels_);
        // The newest generation becomes old content.
        for (const std::size_t at : seam_candidates_) mask_data[at] = 1;
        for (std::size_t i = 0; i < n; ++i) {
          if (mask_data[i] == 2) mask_data[i] = 1;
        }
        rt::account(rt::op::mem, n / 8);
      });
  seam_candidates_.clear();
}

double compositor::coverage() const {
  if (mask_.empty()) return 0.0;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < mask_.size(); ++i) covered += mask_[i] ? 1u : 0u;
  return static_cast<double>(covered) / static_cast<double>(mask_.size());
}

geo::rect compositor::content_bounds() const {
  if (pixels_.empty()) return {};
  int min_x = pixels_.width();
  int min_y = pixels_.height();
  int max_x = -1;
  int max_y = -1;
  for (int y = 0; y < mask_.height(); ++y) {
    for (int x = 0; x < mask_.width(); ++x) {
      if (mask_.at(x, y)) {
        min_x = std::min(min_x, x);
        min_y = std::min(min_y, y);
        max_x = std::max(max_x, x);
        max_y = std::max(max_y, y);
      }
    }
  }
  if (max_x < min_x) return {};
  return {bounds_.x0 + min_x, bounds_.y0 + min_y, max_x - min_x + 1,
          max_y - min_y + 1};
}

img::image_u8 compositor::render() const {
  const geo::rect content = content_bounds();
  if (content.empty()) return {};
  const int min_x = content.x0 - bounds_.x0;
  const int min_y = content.y0 - bounds_.y0;
  img::image_u8 out(content.w, content.h, 1);
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      out.at(x, y) = pixels_.at(x + min_x, y + min_y);
    }
  }
  return out;
}

img::image_u8 montage(const std::vector<img::image_u8>& images, int gap) {
  int total_w = 0;
  int max_h = 0;
  int count = 0;
  int channels = 1;
  for (const auto& im : images) {
    if (im.empty()) continue;
    total_w += im.width();
    max_h = std::max(max_h, im.height());
    channels = std::max(channels, im.channels());
    ++count;
  }
  if (count == 0) return {};
  total_w += gap * (count - 1);

  rt::scope attributed(rt::fn::stitch);
  img::image_u8 out(total_w, max_h, channels);
  int cursor = 0;
  for (const auto& im : images) {
    if (im.empty()) continue;
    for (int y = 0; y < im.height(); ++y) {
      for (int x = 0; x < im.width(); ++x) {
        for (int c = 0; c < channels; ++c) {
          // Grayscale panels replicate into RGB montages.
          out.at(cursor + x, y, c) =
              im.at(x, y, std::min(c, im.channels() - 1));
        }
      }
      rt::account(rt::op::mem, static_cast<std::uint64_t>(im.width()));
    }
    cursor += im.width() + gap;
  }
  return out;
}

}  // namespace vs::stitch
