#include "stats.h"

#include <algorithm>
#include <cmath>

namespace vsbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// 0-based index of the nearest-rank q-quantile of n sorted samples.
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_index(samples.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

bool tail_valid(std::size_t n, double q, std::size_t min_beyond) {
  return samples_beyond(n, q) >= min_beyond;
}

latency_summary summarize_latency(const std::vector<double>& samples) {
  latency_summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.p90 = percentile(samples, 0.9);
  s.p90_valid = tail_valid(s.n, 0.9);
  return s;
}

}  // namespace vsbench
