// Order statistics for the benchmark's reported timings.
//
// A latency is reported as its median plus its 90th percentile.  The
// percentile is nearest-rank (an actual sample, never an interpolation), and
// it is only meaningful when enough samples lie beyond it: with fewer than
// ten samples above the p90 the tail is two or three runs' noise.
#pragma once

#include <cstddef>
#include <vector>

namespace vsbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank q-quantile (q in (0, 1]): the ceil(q * n)-th smallest
/// sample.  0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// How many of `n` samples lie strictly after the nearest-rank q-quantile's
/// position in sorted order.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: a q-quantile of `n` samples is reported as valid only
/// when at least `min_beyond` samples lie beyond it.
[[nodiscard]] bool tail_valid(std::size_t n, double q,
                              std::size_t min_beyond = 10);

/// Median, p90 and whether the p90 passes the tail rule.
struct latency_summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  bool p90_valid = false;
};
[[nodiscard]] latency_summary summarize_latency(
    const std::vector<double>& samples);

}  // namespace vsbench
