// SDC egregiousness distributions (the Fig 12 curves).
#pragma once

#include <vector>

#include "quality/metric.h"

namespace vs::quality {

/// One analyzed SDC: its quality vs. a chosen golden reference.
struct sdc_quality {
  quality_result quality;
};

/// Cumulative ED distribution: point k = percentage of SDCs with ED <= k.
/// Egregious SDCs (no ED) never enter any bucket, so curves of campaigns
/// that produced them plateau below 100% — exactly as in Fig 12.
struct ed_cdf {
  std::vector<double> cumulative_percent;  ///< index = ED value
  std::size_t total_sdcs = 0;
  std::size_t egregious = 0;

  /// Percentage of SDCs with ED <= ed (100-clamped index access).
  [[nodiscard]] double percent_at(int ed) const noexcept;
};

/// Builds the CDF over a set of analyzed SDCs.  `max_ed` bounds the curve's
/// x axis (the paper plots 0..100).
[[nodiscard]] ed_cdf build_ed_cdf(const std::vector<sdc_quality>& sdcs,
                                  int max_ed = 100);

}  // namespace vs::quality
