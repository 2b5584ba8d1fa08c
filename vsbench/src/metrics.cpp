#include <algorithm>
#include <stdexcept>

#include "workloads.h"

namespace vsbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"frames_per_s", "1/s"},   {"call_ms_p50", "ms"},
      {"call_ms_p90", "ms"},     {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"video.frames", "count"},
      {"video.frame_ms", "ms"},
      {"pipeline.overlap_ms", "ms"},
      {"pipeline.spine_ms", "ms"},
      {"gate.busy_ms", "ms"},
      {"gate.skip_ratio", "ratio"},
      {"gate.delta_ratio", "ratio"},
      {"gate.keypoints_reused", "count"},
      {"gate.quality_rel_l2", "%"},
      {"features.busy_ms", "ms"},
      {"features.keypoints", "count"},
      {"match.busy_ms", "ms"},
      {"match.matches", "count"},
      {"geometry.busy_ms", "ms"},
      {"geometry.inlier_ratio", "ratio"},
      {"geometry.align_fail_ratio", "ratio"},
      {"stitch.composite_ms", "ms"},
      {"stitch.canvas_mpix", "Mpix"},
      {"stitch.close_ms", "ms"},
      {"stitch.minis", "count"},
      {"fault.golden_ms", "ms"},
      {"fault.mask_ms", "ms"},
      {"fault.crash_ms", "ms"},
      {"fault.sdc_ms", "ms"},
      {"fault.hang_ms", "ms"},
      {"fault.hang_time_share", "ratio"},
      {"serve.run_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.first_mini_ms", "ms"},
      {"serve.queue_depth", "count"},
      {"replay.unexplained_share", "ratio"},
  };
  return names;
}

void complete_per_layer(run_result& r) {
  const auto& catalogue = per_layer_metrics();
  for (const auto& m : r.metrics) {
    if (std::none_of(catalogue.begin(), catalogue.end(),
                     [&](const auto& entry) { return entry.first == m.name; })) {
      throw std::logic_error("per-layer metric outside the catalogue: " +
                             m.name);
    }
  }
  std::vector<metric> ordered;
  for (const auto& [name, unit] : catalogue) {
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const metric& m) { return m.name == name; });
    if (it == r.metrics.end()) {
      ordered.push_back({name, 0.0, unit});
    } else {
      if (it->unit != unit) {
        throw std::logic_error("unit mismatch for per-layer metric " + name);
      }
      ordered.push_back(*it);
    }
  }
  r.metrics = std::move(ordered);
}

}  // namespace vsbench
