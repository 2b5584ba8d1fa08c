#include "features/fast.h"

#include <algorithm>

#include <vector>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "features/fast_simd.h"
#include "rt/instrument.h"

namespace vs::feat {

namespace {

using simd::circle_dx;
using simd::circle_dy;
constexpr int segment_length = 9;  // FAST-9

// Classifies circle pixel i against center p with threshold t:
// +1 brighter, -1 darker, 0 similar.
inline int classify(int value, int center, int threshold) {
  if (value >= center + threshold) return 1;
  if (value <= center - threshold) return -1;
  return 0;
}

// True when >= segment_length contiguous circle pixels share `sign`.
bool has_contiguous_arc(const int (&cls)[16], int sign) {
  int run = 0;
  // Scan twice around the circle to handle wrap-around runs.
  for (int i = 0; i < 32; ++i) {
    if (cls[i & 15] == sign) {
      if (++run >= segment_length) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

// The tail both lanes share.  Non-max suppression over rows [y0, y1) of a
// frozen score map appends the surviving corners in raster order; of a tie
// between neighbours only the earliest in raster order survives.
void collect_maxima(const img::basic_image<float>& scores, int border,
                    int y0, int y1, std::vector<keypoint>& out) {
  const int w = scores.width();
  for (int y = y0; y < y1; ++y) {
    for (int x = border; x < w - border; ++x) {
      const float s = scores.at(x, y);
      if (s <= 0.0f) continue;
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const float neighbour = scores.at(x + dx, y + dy);
          // Strict on earlier raster positions keeps exactly one of a tie.
          if (neighbour > s ||
              (neighbour == s && (dy < 0 || (dy == 0 && dx < 0)))) {
            is_max = false;
            break;
          }
        }
      }
      if (!is_max) continue;
      out.push_back(keypoint{static_cast<float>(x), static_cast<float>(y), s,
                             0.0f});
    }
  }
}

// Strongest first, ties in raster order, capped at max_keypoints.  The cap
// is an allocation size, so it passes rt::alloc_size's check in both lanes.
void keep_strongest(std::vector<keypoint>& found, int max_keypoints) {
  std::stable_sort(found.begin(), found.end(),
                   [](const keypoint& a, const keypoint& b) {
                     return a.score > b.score;
                   });
  const auto cap = rt::alloc_size(max_keypoints, 1 << 20);
  if (found.size() > cap) found.resize(cap);
}

// Clean lane: band-parallel detection without fault-site hooks.  Every
// pixel is scored by the active SIMD tier's row kernel (exact integer
// fast_score, no compass early exit), the fixed row tiling makes the result
// independent of the worker count, and the per-band keypoint vectors are
// concatenated in band order so the final list matches the instrumented
// lane's raster order byte for byte.
constexpr std::int64_t row_band = 16;

std::vector<keypoint> fast_detect_clean(const img::image_u8& gray,
                                        const fast_params& params) {
  const int border = std::max(3, params.border);
  const int w = gray.width();
  const int h = gray.height();
  if (w <= 2 * border || h <= 2 * border) return {};
  const int threshold = std::max(1, params.threshold);

  img::basic_image<float> scores(w, h, 1);
  auto& pool = core::thread_pool::current();

  // Score pass: rows are independent; each band writes disjoint rows.  The
  // row kernel returns fast_score for every column (exact integer math at
  // every SIMD level), so only the corners' entries are written here.
  const auto score_row = simd::select_score_row(core::simd::active());
  pool.parallel_for(
      border, h - border, row_band,
      [&](std::int64_t y0, std::int64_t y1, std::size_t) {
        std::vector<std::int16_t> row_scores(static_cast<std::size_t>(w));
        for (int y = static_cast<int>(y0); y < y1; ++y) {
          score_row(gray, y, border, w - border, threshold,
                    row_scores.data());
          for (int x = border; x < w - border; ++x) {
            const int score = row_scores[static_cast<std::size_t>(x)];
            if (score <= 0) continue;
            scores.at(x, y) = static_cast<float>(score);
          }
        }
      });

  // Collection pass: non-max suppression reads the (now frozen) score map;
  // per-band outputs concatenated in band order reproduce raster order.
  const std::size_t bands =
      core::thread_pool::chunk_count(border, h - border, row_band);
  std::vector<std::vector<keypoint>> band_found(bands);
  pool.parallel_for(
      border, h - border, row_band,
      [&](std::int64_t y0, std::int64_t y1, std::size_t band) {
        collect_maxima(scores, border, static_cast<int>(y0),
                       static_cast<int>(y1), band_found[band]);
      });

  std::vector<keypoint> found;
  std::size_t total = 0;
  for (const auto& band : band_found) total += band.size();
  found.reserve(total);
  for (const auto& band : band_found) {
    found.insert(found.end(), band.begin(), band.end());
  }
  keep_strongest(found, params.max_keypoints);
  return found;
}

}  // namespace

int fast_score(const img::image_u8& gray, int x, int y, int threshold) {
  const int center = gray.at(x, y);
  int cls[16];
  int sum_bright = 0;
  int sum_dark = 0;
  for (int i = 0; i < 16; ++i) {
    const int v = gray.at(x + circle_dx[i], y + circle_dy[i]);
    cls[i] = classify(v, center, threshold);
    if (cls[i] > 0) sum_bright += v - center - threshold;
    if (cls[i] < 0) sum_dark += center - threshold - v;
  }
  const bool bright = has_contiguous_arc(cls, 1);
  const bool dark = has_contiguous_arc(cls, -1);
  if (!bright && !dark) return 0;
  if (bright && !dark) return sum_bright;
  if (dark && !bright) return sum_dark;
  return std::max(sum_bright, sum_dark);
}

namespace {

std::vector<keypoint> fast_detect_instrumented(const img::image_u8& gray,
                                               const fast_params& params) {
  rt::scope attributed(rt::fn::fast_detect);

  const int border = std::max(3, params.border);
  const int w = gray.width();
  const int h = gray.height();
  if (w <= 2 * border || h <= 2 * border) return {};

  // The detection threshold lives in a register across the whole scan: a
  // single GPR fault site covers it.
  const int threshold =
      std::max(1, rt::g32(params.threshold));

  img::basic_image<float> scores(w, h, 1);
  const std::uint8_t* data = gray.data();
  const std::size_t n = gray.size();

  for (int y = border; y < h - border; ++y) {
    // Row bound: a long-lived control register for the whole scan line.
    const auto row_end = static_cast<std::int64_t>(rt::ctrl(w - border));
    for (std::int64_t x = border; x < row_end; ++x) {
      // High-speed test: of the 4 compass pixels, at least 3 must differ for
      // a FAST-9 corner to be possible (standard early-exit).  Every read
      // goes through guarded address arithmetic: a corrupted row bound or
      // offset becomes a wild (wrapped or faulting) load, not silent UB.
      const std::int64_t center_off = static_cast<std::int64_t>(y) * w + x;
      const int center = data[rt::idx(center_off, n)];
      const int top =
          data[rt::idx(center_off - 3 * static_cast<std::int64_t>(w), n)];
      const int bottom =
          data[rt::idx(center_off + 3 * static_cast<std::int64_t>(w), n)];
      const int left = data[rt::idx(center_off - 3, n)];
      const int right = data[rt::idx(center_off + 3, n)];
      int extreme = 0;
      extreme += classify(top, center, threshold) != 0;
      extreme += classify(bottom, center, threshold) != 0;
      extreme += classify(left, center, threshold) != 0;
      extreme += classify(right, center, threshold) != 0;
      rt::account(rt::op::int_alu, 10);
      // A 9-of-16 contiguous arc always covers at least 2 of the 4 compass
      // points (FAST-9 quick test; 3-of-4 is only valid for FAST-12).
      if (extreme < 2) continue;
      if (x >= w - border) continue;  // only reachable via a corrupted bound
      const int score =
          fast_score(gray, static_cast<int>(x), y, threshold);
      rt::account(rt::op::int_alu, 48);
      if (score <= 0) continue;
      scores.at(static_cast<int>(x), y) = static_cast<float>(score);
    }
    rt::account(rt::op::branch, static_cast<std::uint64_t>(w));
  }

  std::vector<keypoint> found;
  collect_maxima(scores, border, border, h - border, found);
  rt::account(rt::op::branch, found.size() * 9);
  keep_strongest(found, params.max_keypoints);
  return found;
}

}  // namespace

std::vector<keypoint> fast_detect(const img::image_u8& gray,
                                  const fast_params& params) {
  if (gray.channels() != 1) throw invalid_argument("fast_detect: need gray");
  return core::dispatch(
      [&] { return fast_detect_clean(gray, params); },
      [&] { return fast_detect_instrumented(gray, params); });
}

}  // namespace vs::feat
