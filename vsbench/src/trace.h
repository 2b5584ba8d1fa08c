// Span recording for the traced run.  Spans are taken in the benchmark's
// own code around its calls into each layer's public functions, so the
// program under test carries no tracing code.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

#include "video/generator.h"

namespace vsbench {

/// The per-frame layers of the summarizer, named after their modules.
enum class layer : std::uint8_t {
  video,
  gate,
  features,
  match,
  geometry,
  stitch,
  count_,
};
inline constexpr int layer_count = static_cast<int>(layer::count_);

[[nodiscard]] const char* layer_name(layer l) noexcept;

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(bench_clock::time_point a,
                                       bench_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory spans of one replayed operation.  Spans never nest (each
/// wraps one leaf call), so a layer's self time is the sum of its spans.
class span_recorder {
 public:
  struct span {
    layer where = layer::video;
    const char* call = "";
    double start_ms = 0.0;  ///< since the recorder's origin
    double end_ms = 0.0;
  };

  span_recorder() : origin_(bench_clock::now()) {}

  /// Runs `f` inside a span attributed to `where`.
  template <class F>
  auto record(layer where, const char* call, F&& f) -> decltype(f()) {
    const double start = now_ms();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      spans_.push_back({where, call, start, now_ms()});
    } else {
      auto out = f();
      spans_.push_back({where, call, start, now_ms()});
      return out;
    }
  }

  [[nodiscard]] double now_ms() const {
    return ms_between(origin_, bench_clock::now());
  }
  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }

  /// Summed span time per layer.
  [[nodiscard]] std::array<double, layer_count> layer_ms() const;

 private:
  bench_clock::time_point origin_;
  std::vector<span> spans_;
};

/// video_source decorator timing every frame() call, whichever thread makes
/// it (the pipeline's prefetch helpers acquire frames too).
class timed_source final : public vs::video::video_source {
 public:
  explicit timed_source(const vs::video::video_source& inner)
      : inner_(inner) {}

  [[nodiscard]] int frame_count() const override {
    return inner_.frame_count();
  }
  [[nodiscard]] int frame_width() const override {
    return inner_.frame_width();
  }
  [[nodiscard]] int frame_height() const override {
    return inner_.frame_height();
  }
  [[nodiscard]] vs::img::image_u8 frame(int index) const override;

  /// Per-call acquire times recorded so far (ms).
  [[nodiscard]] std::vector<double> frame_ms() const;

 private:
  const vs::video::video_source& inner_;
  mutable std::mutex mutex_;
  mutable std::vector<double> frame_ms_;  // guarded by mutex_
};

}  // namespace vsbench
