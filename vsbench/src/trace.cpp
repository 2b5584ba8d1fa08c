#include "trace.h"

namespace vsbench {

const char* layer_name(layer l) noexcept {
  switch (l) {
    case layer::video:
      return "video";
    case layer::gate:
      return "gate";
    case layer::features:
      return "features";
    case layer::match:
      return "match";
    case layer::geometry:
      return "geometry";
    case layer::stitch:
      return "stitch";
    case layer::count_:
      break;
  }
  return "?";
}

std::array<double, layer_count> span_recorder::layer_ms() const {
  std::array<double, layer_count> sums{};
  for (const auto& s : spans_) {
    sums[static_cast<int>(s.where)] += s.end_ms - s.start_ms;
  }
  return sums;
}

vs::img::image_u8 timed_source::frame(int index) const {
  const auto start = bench_clock::now();
  vs::img::image_u8 out = inner_.frame(index);
  const double ms = ms_between(start, bench_clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  frame_ms_.push_back(ms);
  return out;
}

std::vector<double> timed_source::frame_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return frame_ms_;
}

}  // namespace vsbench
