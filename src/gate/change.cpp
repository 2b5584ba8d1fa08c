#include "gate/change.h"

#include <cmath>
#include <cstdlib>

#include "rt/instrument.h"

namespace vs::gate {
namespace {

/// One shifted-window absolute-difference pass: sums |cur[p + o] - ref[p]|
/// over the overlap of the two thumbs.  Pure integer arithmetic.
struct diff_sum {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

diff_sum shifted_diff(const img::image_u8& cur, const img::image_u8& ref,
                      int ox, int oy) {
  diff_sum d;
  const int w = ref.width();
  const int h = ref.height();
  const int y0 = std::max(0, -oy);
  const int y1 = std::min(h, h - oy);
  const int x0 = std::max(0, -ox);
  const int x1 = std::min(w, w - ox);
  for (int y = y0; y < y1; ++y) {
    const std::size_t ref_base = ref.offset(0, y);
    const std::size_t cur_base = cur.offset(0, y + oy);
    for (int x = x0; x < x1; ++x) {
      d.sum += std::uint64_t(std::abs(int(cur[cur_base + std::size_t(x + ox)]) -
                                      int(ref[ref_base + std::size_t(x)])));
    }
  }
  d.count = std::uint64_t(std::max(0, y1 - y0)) *
            std::uint64_t(std::max(0, x1 - x0));
  return d;
}

/// True when mean(a) < mean(b), compared exactly (cross-multiplied — the
/// overlap windows differ in size across shifts, so the raw sums are not
/// comparable directly).
bool mean_less(const diff_sum& a, const diff_sum& b) {
  if (a.count == 0) return false;
  if (b.count == 0) return true;
  // Sums fit 8 bits x thumb area (< 2^20), counts < 2^20: no overflow.
  return a.sum * b.count < b.sum * a.count;
}

template <class H>
change_stats score_impl(const img::image_u8& cur, const img::image_u8& ref,
                        int radius, int factor) {
  change_stats stats;
  if (cur.width() != ref.width() || cur.height() != ref.height() ||
      cur.empty()) {
    return stats;
  }
  radius = std::max(0, radius);
  const int w = ref.width();
  const int h = ref.height();

  // Zero-shift pass first: it is the legacy change score, and in the
  // instrumented lane its per-row partials are live register values — the
  // gate's densest fault sites.
  std::int64_t sum = 0;
  for (int y = 0; y < h; ++y) {
    int row = 0;
    const std::size_t base = ref.offset(0, y);
    for (int x = 0; x < w; ++x) {
      row += std::abs(int(cur[base + std::size_t(x)]) -
                      int(ref[base + std::size_t(x)]));
    }
    sum += H::g32(row);
    H::account(rt::op::int_alu, static_cast<std::uint64_t>(w) * 3);
    H::account(rt::op::mem, static_cast<std::uint64_t>(w) * 2);
  }
  diff_sum raw;
  raw.sum = std::uint64_t(H::g64(sum));
  raw.count = std::uint64_t(w) * std::uint64_t(h);
  stats.raw = static_cast<double>(raw.sum) / static_cast<double>(raw.count);

  // Translation search, row-major order, strict-less so the first minimum
  // wins deterministically.  The zero shift participates via the pass
  // above (same integers either lane).
  diff_sum best = raw;
  int best_ox = 0;
  int best_oy = 0;
  for (int oy = -radius; oy <= radius; ++oy) {
    for (int ox = -radius; ox <= radius; ++ox) {
      if (ox == 0 && oy == 0) continue;
      const diff_sum d = shifted_diff(cur, ref, ox, oy);
      H::account(rt::op::int_alu, static_cast<std::uint64_t>(d.count) * 3);
      H::account(rt::op::mem, static_cast<std::uint64_t>(d.count) * 2);
      if (mean_less(d, best)) {
        best = d;
        best_ox = ox;
        best_oy = oy;
      }
    }
  }
  // The chosen shift and the compensated score are the gated decision
  // values: single-strike targets that steer skip/delta/full.
  best_ox = H::g32(best_ox);
  best_oy = H::g32(best_oy);
  stats.shift_x = best_ox * factor;
  stats.shift_y = best_oy * factor;
  stats.score = best.count == 0 ? 255.0
                                : static_cast<double>(best.sum) /
                                      static_cast<double>(best.count);
  stats.score = H::f64(stats.score);
  return stats;
}

}  // namespace

img::image_u8 make_thumb(const img::image_u8& frame, int factor) {
  if (factor < 1) factor = 1;
  const int tw = std::max(1, frame.width() / factor);
  const int th = std::max(1, frame.height() / factor);
  img::image_u8 thumb(tw, th, 1);
  for (int ty = 0; ty < th; ++ty) {
    for (int tx = 0; tx < tw; ++tx) {
      unsigned sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          sum += frame.sample_clamped(tx * factor + dx, ty * factor + dy);
        }
      }
      thumb.at(tx, ty) = static_cast<std::uint8_t>(
          sum / static_cast<unsigned>(factor * factor));
    }
  }
  rt::account(rt::op::mem, frame.size());
  rt::account(rt::op::int_alu, frame.size());
  return thumb;
}

change_stats change_score(const img::image_u8& cur, const img::image_u8& ref,
                          int radius, int factor) {
  rt::scope attributed(rt::fn::gate);
  return score_impl<rt::live>(cur, ref, radius, factor);
}

change_stats change_score_clean(const img::image_u8& cur,
                                const img::image_u8& ref, int radius,
                                int factor) {
  return score_impl<rt::inert>(cur, ref, radius, factor);
}

frame_class classify(const change_stats& stats, const gate_config& cfg,
                     bool can_skip, bool can_delta) {
  // The thresholds are compared on the instrumented lane: the chosen class
  // ordinal rides an rt::ctrl hook, so an injection can flip the decision
  // itself — the gate's control-flow contribution to the fault surface.
  frame_class cls = frame_class::full;
  const double motion2 = double(stats.shift_x) * double(stats.shift_x) +
                         double(stats.shift_y) * double(stats.shift_y);
  const double skip_motion2 = cfg.skip_motion_px * cfg.skip_motion_px;
  if (can_skip && stats.score <= cfg.skip_residual &&
      motion2 <= skip_motion2) {
    cls = frame_class::skip;
  } else if (can_delta && stats.score <= cfg.delta_residual) {
    cls = frame_class::delta;
  }
  const auto flipped =
      static_cast<frame_class>(rt::ctrl(static_cast<std::int64_t>(cls)));
  return flipped <= frame_class::full ? flipped : frame_class::full;
}

}  // namespace vs::gate
