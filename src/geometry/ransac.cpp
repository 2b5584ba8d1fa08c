#include "geometry/ransac.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/error.h"
#include "geometry/affine.h"
#include "geometry/homography.h"
#include "rt/instrument.h"

namespace vs::geo {

namespace {

// Adaptive iteration bound: enough hypotheses to hit an all-inlier sample
// with the requested confidence given the observed inlier ratio.
int adaptive_iterations(double confidence, double inlier_ratio,
                        std::size_t sample_size, int cap) {
  if (inlier_ratio <= 0.0) return cap;
  const double p_good = std::pow(inlier_ratio, static_cast<double>(sample_size));
  if (p_good >= 1.0 - 1e-12) return 1;
  const double denom = std::log(1.0 - p_good);
  if (denom >= -1e-12) return cap;
  const double n = std::log(std::max(1e-12, 1.0 - confidence)) / denom;
  if (!(n > 0.0)) return cap;
  return std::min(cap, static_cast<int>(std::ceil(n)));
}

}  // namespace

std::optional<ransac_result> ransac_fit(
    std::span<const point_pair> pairs, const ransac_params& params,
    const std::function<std::optional<mat3>(std::span<const point_pair>)>&
        estimator,
    const std::function<double(const mat3&, const point_pair&)>& error,
    std::uint64_t seed) {
  rt::scope attributed(rt::fn::ransac);
  if (params.sample_size == 0) throw invalid_argument("ransac: sample_size 0");
  if (pairs.size() < params.sample_size ||
      pairs.size() < params.min_inliers) {
    return std::nullopt;
  }

  rng sampler(seed);
  ransac_result best;
  best.inlier_mask.assign(pairs.size(), false);

  std::vector<point_pair> sample(params.sample_size);

  // The iteration bound is a control value: a fault here either starves the
  // search (few iterations -> worse/absent model) or inflates it (watchdog
  // eventually declares a hang) — mirroring a loop-bound register strike.
  int limit = static_cast<int>(rt::ctrl(params.max_iterations));
  int iter = 0;
  for (; iter < limit; ++iter) {
    // Loop counter in a register: a corrupted value rewinds (-> watchdog
    // hang) or fast-forwards (-> starved search) the hypothesis loop.
    iter = static_cast<int>(rt::ctrl(iter));
    if (iter < 0) continue;  // rewound: keep iterating
    const auto indices =
        sampler.sample_without_replacement(pairs.size(), params.sample_size);
    for (std::size_t i = 0; i < params.sample_size; ++i) {
      sample[i] = pairs[indices[i]];
    }
    const auto model = estimator(sample);
    rt::account(rt::op::int_alu, 6 * params.sample_size);
    if (!model) continue;

    std::vector<bool> mask(pairs.size(), false);
    std::size_t inliers = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const bool in = error(*model, pairs[i]) <= params.inlier_threshold;
      mask[i] = in;
      inliers += in ? 1u : 0u;
    }
    rt::account(rt::op::branch, pairs.size());

    if (inliers > best.inlier_count) {
      best.inlier_count = inliers;
      best.model = *model;
      best.inlier_mask = std::move(mask);
      const double ratio =
          static_cast<double>(inliers) / static_cast<double>(pairs.size());
      limit = std::min(
          limit, iter + 1 + adaptive_iterations(params.confidence, ratio,
                                                params.sample_size,
                                                params.max_iterations));
    }
  }
  best.iterations_run = iter;

  if (best.inlier_count < params.min_inliers) return std::nullopt;
  return best;
}

namespace {

std::optional<ransac_result> refit_on_inliers(
    std::span<const point_pair> pairs, ransac_result result,
    const std::function<std::optional<mat3>(std::span<const point_pair>)>&
        estimator) {
  std::vector<point_pair> inliers;
  inliers.reserve(result.inlier_count);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (result.inlier_mask[i]) inliers.push_back(pairs[i]);
  }
  const auto refined = estimator(inliers);
  if (refined) result.model = *refined;
  return result;
}

}  // namespace

std::optional<ransac_result> ransac_homography(std::span<const point_pair> pairs,
                                               const ransac_params& params,
                                               std::uint64_t seed) {
  ransac_params p = params;
  p.sample_size = homography_min_pairs;
  auto estimator = [](std::span<const point_pair> s) {
    return estimate_homography(s);
  };
  auto error = [](const mat3& m, const point_pair& pair) {
    return reprojection_error(m, pair);
  };
  auto result = ransac_fit(pairs, p, estimator, error, seed);
  if (!result) return std::nullopt;
  return refit_on_inliers(pairs, std::move(*result), estimator);
}

std::optional<ransac_result> ransac_affine(std::span<const point_pair> pairs,
                                           const ransac_params& params,
                                           std::uint64_t seed) {
  ransac_params p = params;
  p.sample_size = affine_min_pairs;
  auto estimator = [](std::span<const point_pair> s) {
    return estimate_affine(s);
  };
  auto error = [](const mat3& m, const point_pair& pair) {
    return reprojection_error(m, pair);
  };
  auto result = ransac_fit(pairs, p, estimator, error, seed);
  if (!result) return std::nullopt;
  return refit_on_inliers(pairs, std::move(*result), estimator);
}

}  // namespace vs::geo
