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
// two radii).
const rotated_bins& rotated_for_radius(int patch_radius) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<const rotated_bins>> built;
  const std::lock_guard lock(mutex);
  auto& slot = built[patch_radius];
  if (!slot) slot = build_rotated(patch_radius);
  return *slot;
}

int orientation_bin(double angle) {
  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  const double positive = angle < 0 ? angle + two_pi : angle;
  return static_cast<int>(positive / two_pi * orientation_bins + 0.5) %
         orientation_bins;
}

// Tables built once per extraction, in both lanes:
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

// The per-keypoint bodies both lanes run (rt::live on the instrumented
// lane, rt::inert on the clean lane).  Every pixel load is guarded address
// arithmetic on the instrumented lane, so an injected offset becomes a wild
// (wrapped or faulting) read.

// Intensity-centroid orientation of the disc of tables.radius around
// (x, y), walked row by row in raster order.
template <class H>
float centroid_angle(const img::image_u8& gray, int x, int y,
                     const describe_tables& tables) {
  typename H::scope attributed(rt::fn::orb_describe);
  const std::uint8_t* data = gray.data();
  const std::size_t n = gray.size();
  const int w = gray.width();
  const int r = tables.radius;
  const std::int64_t center = static_cast<std::int64_t>(y) * w + x;
  std::int64_t m01 = 0;
  std::int64_t m10 = 0;
  for (int dy = -r; dy <= r; ++dy) {
    const int half = tables.disc_half[static_cast<std::size_t>(dy + r)];
    const std::int64_t row = center + static_cast<std::int64_t>(dy) * w;
    int row_sum = 0;
    int row_moment = 0;
    for (int dx = -half; dx <= half; ++dx) {
      const int v = data[H::idx(row + dx, n)];
      row_sum += v;
      row_moment += dx * v;
    }
    m10 += row_moment;
    m01 += static_cast<std::int64_t>(dy) * row_sum;
  }
  H::account(rt::op::int_alu,
             static_cast<std::uint64_t>((2 * r + 1) * (2 * r + 1)) * 4);
  // The moments feed an FPR op (atan2): one representative FP fault site.
  const double angle =
      std::atan2(H::f64(static_cast<double>(m01)),
                 static_cast<double>(H::g64(m10)));
  H::account(rt::op::fp_alu, 6);
  return static_cast<float>(angle);
}

// Rotated-BRIEF descriptor of one oriented keypoint.
template <class H>
descriptor describe(const img::image_u8& gray, const keypoint& kp,
                    const describe_tables& tables) {
  typename H::scope attributed(rt::fn::orb_describe);
  const std::int32_t* a = tables.pairs(orientation_bin(kp.angle));
  const std::int32_t* b = a + pattern_size;
  const std::uint8_t* data = gray.data();
  const std::size_t n = gray.size();
  const std::int64_t center =
      static_cast<std::int64_t>(static_cast<int>(kp.y)) * gray.width() +
      static_cast<int>(kp.x);

  descriptor d;
  for (std::size_t word = 0; word < d.bits.size(); ++word) {
    std::uint64_t bits = 0;
    for (int j = 0; j < 64; ++j) {
      const std::size_t i = word * 64 + static_cast<std::size_t>(j);
      // Two statements: the hooks' order is what fault plans address.
      const std::uint8_t va = data[H::idx(center + a[i], n)];
      const std::uint8_t vb = data[H::idx(center + b[i], n)];
      bits |= static_cast<std::uint64_t>(va < vb) << j;
    }
    d.bits[word] = bits;
  }
  H::account(rt::op::int_alu, pattern_size * 4);
  // The packed descriptor words are long-lived register values while the
  // frame is matched; expose each as a GPR fault site once.
  for (auto& word : d.bits) {
    word = static_cast<std::uint64_t>(H::g64(static_cast<std::int64_t>(word)));
  }
  return d;
}

// Orients keypoint `kp` and describes it into `d`.  ORB quantizes
// orientation (OpenCV uses ~12 degree steps via its precomputed pattern
// tables); quantizing here keeps descriptors of the same physical corner
// bit-identical under small orientation jitter.
template <class H>
void orient_and_describe(const img::image_u8& gray, const img::image_u8& smooth,
                         const describe_tables& tables, keypoint& kp,
                         descriptor& d) {
  constexpr double two_pi = 2.0 * 3.14159265358979323846;
  const int bin = orientation_bin(centroid_angle<H>(
      gray, static_cast<int>(kp.x), static_cast<int>(kp.y), tables));
  kp.angle = static_cast<float>(bin * two_pi / orientation_bins);
  d = describe<H>(smooth, kp, tables);
}

}  // namespace

float intensity_centroid_angle(const img::image_u8& gray, int x, int y,
                               int radius) {
  return centroid_angle<rt::live>(gray, x, y,
                                  describe_tables(radius, gray.width()));
}

descriptor orb_describe_one(const img::image_u8& gray, const keypoint& kp,
                            int patch_radius) {
  return describe<rt::live>(gray, kp,
                            describe_tables(patch_radius, gray.width()));
}

frame_features orb_extract(const img::image_u8& gray,
                           const orb_params& params) {
  if (gray.channels() != 1) throw invalid_argument("orb_extract: need gray");
  fast_params fp = params.fast;
  fp.border = std::max(fp.border, params.patch_radius * 2 + 2);

  frame_features out;
  out.keypoints = fast_detect(gray, fp);
  out.descriptors.resize(out.keypoints.size());
  // Describe on a smoothed image (detection stays on the raw one): BRIEF
  // comparisons on an unsmoothed image are flipped by sensor noise.  The
  // blur has no fault sites; the instrumented lane accounts its ops here.
  {
    rt::scope attributed(rt::fn::orb_describe);
    rt::account(rt::op::int_alu,
                static_cast<std::uint64_t>(gray.width()) * gray.height() * 4);
    rt::account(rt::op::mem,
                static_cast<std::uint64_t>(gray.width()) * gray.height() * 2);
  }
  const img::image_u8 smooth = img::box_blur3(gray);
  if (out.keypoints.empty()) return out;
  const describe_tables tables(params.patch_radius, gray.width());

  const auto count = static_cast<std::int64_t>(out.keypoints.size());
  core::dispatch(
      [&] {
        // Clean lane: keypoint chunks fan out; each writes disjoint slots.
        core::thread_pool::current().parallel_for(
            0, count, 32, [&](std::int64_t i0, std::int64_t i1, std::size_t) {
              for (auto i = static_cast<std::size_t>(i0);
                   i < static_cast<std::size_t>(i1); ++i) {
                orient_and_describe<rt::inert>(gray, smooth, tables,
                                               out.keypoints[i],
                                               out.descriptors[i]);
              }
            });
      },
      [&] {
        for (std::size_t i = 0; i < out.keypoints.size(); ++i) {
          orient_and_describe<rt::live>(gray, smooth, tables,
                                        out.keypoints[i], out.descriptors[i]);
        }
      });
  return out;
}

}  // namespace vs::feat
