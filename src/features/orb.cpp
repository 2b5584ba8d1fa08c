#include "features/orb.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "rt/instrument.h"

namespace vs::feat {

namespace {

constexpr int pattern_size = 256;

// The BRIEF sampling pattern: 256 point pairs inside the patch.  Generated
// once, deterministically, from an isotropic Gaussian clipped to the patch
// square (the construction Calonder's BRIEF used; ORB's learned pattern is
// equivalent for this reproduction and not redistributable as data).
struct brief_pattern {
  float ax[pattern_size];
  float ay[pattern_size];
  float bx[pattern_size];
  float by[pattern_size];
};

const brief_pattern& pattern_for_radius(int radius) {
  static const brief_pattern pattern = [] {
    brief_pattern p{};
    rng gen(0x0b5e55ed5eedULL);
    constexpr int build_radius = 1024;  // normalized; scaled at sample time
    const double sigma = build_radius / 2.0;
    auto clip = [&](double v) {
      return std::clamp(v, -static_cast<double>(build_radius),
                        static_cast<double>(build_radius));
    };
    for (int i = 0; i < pattern_size; ++i) {
      p.ax[i] = static_cast<float>(clip(gen.normal() * sigma) / build_radius);
      p.ay[i] = static_cast<float>(clip(gen.normal() * sigma) / build_radius);
      p.bx[i] = static_cast<float>(clip(gen.normal() * sigma) / build_radius);
      p.by[i] = static_cast<float>(clip(gen.normal() * sigma) / build_radius);
    }
    return p;
  }();
  (void)radius;
  return pattern;
}

}  // namespace

float intensity_centroid_angle(const img::image_u8& gray, int x, int y,
                               int radius) {
  rt::scope attributed(rt::fn::orb_describe);
  const std::uint8_t* data = gray.data();
  const std::size_t n = gray.size();
  const int w = gray.width();
  std::int64_t m01 = 0;
  std::int64_t m10 = 0;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > radius * radius) continue;
      const std::int64_t off =
          static_cast<std::int64_t>(y + dy) * w + (x + dx);
      const int v = data[rt::idx(off, n)];
      m10 += static_cast<std::int64_t>(dx) * v;
      m01 += static_cast<std::int64_t>(dy) * v;
    }
  }
  rt::account(rt::op::int_alu,
              static_cast<std::uint64_t>((2 * radius + 1) * (2 * radius + 1)) *
                  4);
  // The moments feed an FPR op (atan2): one representative FP fault site.
  const double angle =
      std::atan2(rt::f64(static_cast<double>(m01)),
                 static_cast<double>(rt::g64(m10)));
  rt::account(rt::op::fp_alu, 6);
  return static_cast<float>(angle);
}

namespace {

// Pre-rotated integer sampling offsets for every orientation bin, as OpenCV
// does with its precomputed pattern tables: the per-keypoint cost is then
// two guarded loads and a compare per pair, with no per-pair trigonometry.
struct rotated_pattern {
  std::int16_t ax[pattern_size];
  std::int16_t ay[pattern_size];
  std::int16_t bx[pattern_size];
  std::int16_t by[pattern_size];
};

constexpr int orientation_bins = 30;

using rotated_bins = std::array<rotated_pattern, orientation_bins>;

std::unique_ptr<const rotated_bins> build_rotated(int patch_radius) {
  auto out = std::make_unique<rotated_bins>();
  const brief_pattern& pat = pattern_for_radius(patch_radius);
  for (int b = 0; b < orientation_bins; ++b) {
    const double angle = 2.0 * 3.14159265358979323846 * b / orientation_bins;
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    for (int i = 0; i < pattern_size; ++i) {
      const double scale = patch_radius;
      (*out)[b].ax[i] = static_cast<std::int16_t>(
          std::lround((pat.ax[i] * c - pat.ay[i] * s) * scale));
      (*out)[b].ay[i] = static_cast<std::int16_t>(
          std::lround((pat.ax[i] * s + pat.ay[i] * c) * scale));
      (*out)[b].bx[i] = static_cast<std::int16_t>(
          std::lround((pat.bx[i] * c - pat.by[i] * s) * scale));
      (*out)[b].by[i] = static_cast<std::int16_t>(
          std::lround((pat.bx[i] * s + pat.by[i] * c) * scale));
    }
  }
  return out;
}

// The rotated pattern scaled to `patch_radius`.  Each radius is built once,
// on first use, and kept for the life of the process (a run uses one or
// two radii).  The instrumented lane asks once per keypoint, so each
// thread remembers its last answer and skips the shared lock.
const rotated_bins& rotated_for_radius(int patch_radius) {
  thread_local int last_radius = 0;
  thread_local const rotated_bins* last = nullptr;
  if (last != nullptr && last_radius == patch_radius) return *last;
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const rotated_bins>> built;
  const std::lock_guard lock(mutex);
  auto& slot = built[patch_radius];
  if (!slot) slot = build_rotated(patch_radius);
  last_radius = patch_radius;
  last = slot.get();
  return *slot;
}

int orientation_bin(double angle) {
  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  const double positive = angle < 0 ? angle + two_pi : angle;
  return static_cast<int>(positive / two_pi * orientation_bins + 0.5) %
         orientation_bins;
}

// Clean lane: hook-free twins of the per-keypoint kernels, computing the
// same integers as the instrumented versions (whose hooks are
// value-preserving when disabled) from tables built once per extraction:
//
//   * the rotated pairs flattened to row-major offsets from the keypoint
//     for one image width, so a pair costs two loads and a compare;
//   * the orientation disc's half-width per row, so the moment sums walk
//     row spans instead of testing dx^2 + dy^2 <= r^2 at every pixel.
struct describe_tables {
  int radius = 0;
  std::vector<int> disc_half;          ///< index dy + radius
  std::vector<std::int32_t> offsets;   ///< per bin: 256 a's, then 256 b's

  describe_tables(int patch_radius, int width) : radius(patch_radius) {
    for (int dy = -radius; dy <= radius; ++dy) {
      int half = 0;
      while ((half + 1) * (half + 1) + dy * dy <= radius * radius) ++half;
      disc_half.push_back(half);
    }
    const rotated_bins& bins = rotated_for_radius(patch_radius);
    offsets.resize(static_cast<std::size_t>(orientation_bins) * 2 *
                   pattern_size);
    std::int32_t* out = offsets.data();
    for (const rotated_pattern& pat : bins) {
      for (int i = 0; i < pattern_size; ++i) {
        out[i] = pat.ay[i] * width + pat.ax[i];
        out[pattern_size + i] = pat.by[i] * width + pat.bx[i];
      }
      out += 2 * pattern_size;
    }
  }

  [[nodiscard]] const std::int32_t* pairs(int bin) const {
    return offsets.data() + static_cast<std::size_t>(bin) * 2 * pattern_size;
  }
};

float intensity_centroid_angle_clean(const img::image_u8& gray, int x, int y,
                                     const describe_tables& tables) {
  const int w = gray.width();
  const int r = tables.radius;
  const std::uint8_t* center =
      gray.data() + static_cast<std::ptrdiff_t>(y) * w + x;
  std::int64_t m01 = 0;
  std::int64_t m10 = 0;
  for (int dy = -r; dy <= r; ++dy) {
    const int half = tables.disc_half[static_cast<std::size_t>(dy + r)];
    const std::uint8_t* row = center + static_cast<std::ptrdiff_t>(dy) * w;
    int row_sum = 0;
    int row_moment = 0;
    for (int dx = -half; dx <= half; ++dx) {
      row_sum += row[dx];
      row_moment += dx * row[dx];
    }
    m10 += row_moment;
    m01 += static_cast<std::int64_t>(dy) * row_sum;
  }
  return static_cast<float>(
      std::atan2(static_cast<double>(m01), static_cast<double>(m10)));
}

descriptor orb_describe_one_clean(const img::image_u8& gray,
                                  const keypoint& kp,
                                  const describe_tables& tables) {
  const std::int32_t* a = tables.pairs(orientation_bin(kp.angle));
  const std::int32_t* b = a + pattern_size;
  const std::uint8_t* center =
      gray.data() + static_cast<std::ptrdiff_t>(static_cast<int>(kp.y)) *
                        gray.width() +
      static_cast<int>(kp.x);

  descriptor d;
  for (std::size_t word = 0; word < d.bits.size(); ++word) {
    std::uint64_t bits = 0;
    for (int j = 0; j < 64; ++j) {
      const std::size_t i = word * 64 + static_cast<std::size_t>(j);
      bits |= static_cast<std::uint64_t>(center[a[i]] < center[b[i]]) << j;
    }
    d.bits[word] = bits;
  }
  return d;
}

// Clean lane of the full extraction: detection dispatches to its own clean
// lane, then orientation + description fan out over keypoint chunks.  Each
// chunk writes disjoint slots of the pre-sized outputs, so the result is
// identical to the sequential in-order loop.
frame_features orb_extract_clean(const img::image_u8& gray,
                                 const orb_params& params) {
  fast_params fp = params.fast;
  fp.border = std::max(fp.border, params.patch_radius * 2 + 2);

  frame_features out;
  out.keypoints = fast_detect(gray, fp);
  const img::image_u8 smooth = img::box_blur3(gray);
  out.descriptors.resize(out.keypoints.size());
  if (out.keypoints.empty()) return out;
  const describe_tables tables(params.patch_radius, gray.width());

  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  core::thread_pool::current().parallel_for(
      0, static_cast<std::int64_t>(out.keypoints.size()), 32,
      [&](std::int64_t i0, std::int64_t i1, std::size_t) {
        for (std::int64_t i = i0; i < i1; ++i) {
          auto& kp = out.keypoints[static_cast<std::size_t>(i)];
          const int bin = orientation_bin(intensity_centroid_angle_clean(
              gray, static_cast<int>(kp.x), static_cast<int>(kp.y), tables));
          kp.angle = static_cast<float>(bin * two_pi / orientation_bins);
          out.descriptors[static_cast<std::size_t>(i)] =
              orb_describe_one_clean(smooth, kp, tables);
        }
      });
  return out;
}

}  // namespace

descriptor orb_describe_one(const img::image_u8& gray, const keypoint& kp,
                            int patch_radius) {
  rt::scope attributed(rt::fn::orb_describe);
  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  const double positive = kp.angle < 0 ? kp.angle + two_pi : kp.angle;
  const int bin = static_cast<int>(positive / two_pi * orientation_bins + 0.5) %
                  orientation_bins;
  const rotated_pattern& pat =
      rotated_for_radius(patch_radius)[static_cast<std::size_t>(bin)];

  const std::uint8_t* data = gray.data();
  const std::size_t n = gray.size();
  const int w = gray.width();
  const auto cx = static_cast<int>(kp.x);
  const auto cy = static_cast<int>(kp.y);

  descriptor d;
  for (int i = 0; i < pattern_size; ++i) {
    const std::int64_t off_a =
        static_cast<std::int64_t>(cy + pat.ay[i]) * w + (cx + pat.ax[i]);
    const std::int64_t off_b =
        static_cast<std::int64_t>(cy + pat.by[i]) * w + (cx + pat.bx[i]);
    const std::uint8_t va = data[rt::idx(off_a, n)];
    const std::uint8_t vb = data[rt::idx(off_b, n)];
    if (va < vb) {
      d.bits[static_cast<std::size_t>(i >> 6)] |= 1ULL << (i & 63);
    }
  }
  rt::account(rt::op::int_alu, pattern_size * 4);
  // The packed descriptor words are long-lived register values while the
  // frame is matched; expose each as a GPR fault site once.
  for (auto& word : d.bits) {
    word = static_cast<std::uint64_t>(
        rt::g64(static_cast<std::int64_t>(word)));
  }
  return d;
}

namespace {

frame_features orb_extract_instrumented(const img::image_u8& gray,
                                        const orb_params& params) {
  fast_params fp = params.fast;
  fp.border = std::max(fp.border, params.patch_radius * 2 + 2);

  frame_features out;
  out.keypoints = fast_detect(gray, fp);
  out.descriptors.reserve(out.keypoints.size());
  // Describe on a smoothed image (detection stays on the raw one): BRIEF
  // comparisons on an unsmoothed image are flipped by sensor noise.
  const img::image_u8 smooth = [&] {
    rt::scope attributed(rt::fn::orb_describe);
    rt::account(rt::op::int_alu,
                static_cast<std::uint64_t>(gray.width()) * gray.height() * 4);
    rt::account(rt::op::mem,
                static_cast<std::uint64_t>(gray.width()) * gray.height() * 2);
    return img::box_blur3(gray);
  }();
  // ORB quantizes orientation (OpenCV uses ~12 degree steps via its
  // precomputed pattern tables); quantizing here keeps descriptors of the
  // same physical corner bit-identical under small orientation jitter.
  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  constexpr int angle_bins = 30;
  for (auto& kp : out.keypoints) {
    const float raw = intensity_centroid_angle(
        gray, static_cast<int>(kp.x), static_cast<int>(kp.y),
        params.patch_radius);
    const double positive = raw < 0 ? raw + two_pi : raw;
    const int bin =
        static_cast<int>(positive / two_pi * angle_bins + 0.5) % angle_bins;
    kp.angle = static_cast<float>(bin * two_pi / angle_bins);
    out.descriptors.push_back(
        orb_describe_one(smooth, kp, params.patch_radius));
  }
  return out;
}

}  // namespace

frame_features orb_extract(const img::image_u8& gray,
                           const orb_params& params) {
  if (gray.channels() != 1) throw invalid_argument("orb_extract: need gray");
  return core::dispatch(
      [&] { return orb_extract_clean(gray, params); },
      [&] { return orb_extract_instrumented(gray, params); });
}

bool orb_verify_features(const img::image_u8& gray,
                         const frame_features& features,
                         const orb_params& params) {
  if (features.keypoints.size() != features.descriptors.size()) return false;
  if (features.keypoints.size() >
      static_cast<std::size_t>(std::max(0, params.fast.max_keypoints))) {
    return false;
  }
  if (features.keypoints.empty()) return true;

  // Mirror the extractor's effective detection window exactly: any stored
  // coordinate outside it cannot be a genuine detection, and rejecting it
  // here keeps the clean-lane reloads below in bounds.
  const int border =
      std::max(3, std::max(params.fast.border, params.patch_radius * 2 + 2));
  const int w = gray.width();
  const int h = gray.height();
  const int threshold = std::max(1, params.fast.threshold);
  const img::image_u8 smooth = img::box_blur3(gray);
  const describe_tables tables(params.patch_radius, w);
  constexpr double two_pi = 2.0 * 3.14159265358979323846;

  for (std::size_t i = 0; i < features.keypoints.size(); ++i) {
    const keypoint& kp = features.keypoints[i];
    const int x = static_cast<int>(kp.x);
    const int y = static_cast<int>(kp.y);
    // FAST emits integral positions; a fractional (or NaN) coordinate can
    // only come from a fault.
    if (static_cast<float>(x) != kp.x || static_cast<float>(y) != kp.y) {
      return false;
    }
    if (x < border || y < border || x >= w - border || y >= h - border) {
      return false;
    }
    const auto score = static_cast<float>(fast_score(gray, x, y, threshold));
    if (score != kp.score || !(score > 0.0f)) return false;
    const int bin =
        orientation_bin(intensity_centroid_angle_clean(gray, x, y, tables));
    if (kp.angle != static_cast<float>(bin * two_pi / orientation_bins)) {
      return false;
    }
    if (!(orb_describe_one_clean(smooth, kp, tables) ==
          features.descriptors[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace vs::feat
