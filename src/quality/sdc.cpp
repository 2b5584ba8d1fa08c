#include "quality/sdc.h"

#include <algorithm>

#include "core/error.h"

namespace vs::quality {

double ed_cdf::percent_at(int ed) const noexcept {
  if (cumulative_percent.empty()) return 0.0;
  if (ed < 0) return 0.0;
  const auto i = std::min(static_cast<std::size_t>(ed),
                          cumulative_percent.size() - 1);
  return cumulative_percent[i];
}

ed_cdf build_ed_cdf(const std::vector<sdc_quality>& sdcs, int max_ed) {
  if (max_ed < 0) throw invalid_argument("build_ed_cdf: max_ed < 0");
  ed_cdf cdf;
  cdf.total_sdcs = sdcs.size();
  cdf.cumulative_percent.assign(static_cast<std::size_t>(max_ed) + 1, 0.0);
  if (sdcs.empty()) return cdf;

  std::vector<std::size_t> buckets(static_cast<std::size_t>(max_ed) + 1, 0);
  for (const auto& s : sdcs) {
    if (s.quality.egregious || !s.quality.ed) {
      ++cdf.egregious;
      continue;
    }
    const int ed = std::clamp(*s.quality.ed, 0, max_ed);
    ++buckets[static_cast<std::size_t>(ed)];
  }
  std::size_t running = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    running += buckets[i];
    cdf.cumulative_percent[i] =
        100.0 * static_cast<double>(running) / static_cast<double>(sdcs.size());
  }
  return cdf;
}

}  // namespace vs::quality
