#include "match/matcher.h"

#include <algorithm>

#include "core/dispatch.h"
#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "match/matcher_simd.h"
#include "rt/instrument.h"

namespace vs::match {

namespace {

// One query's 2-NN / bounded-1-NN scan: the instrumented lane's, and the
// clean lane's at a SIMD tier without a vectorized scan.  The 64-bit-word
// popcount Hamming kernel with a running bound: the 2-NN invariant only
// needs exact distances below the current second-best, so every candidate
// scan is bounded and most candidates exit after one or two of the four
// descriptor words.  The result is the SIMD scans' bookkeeping type.
using best_pair = simd::best2;

inline best_pair scan_ratio(const feat::descriptor& qd,
                            const std::vector<feat::descriptor>& train) {
  best_pair r;
  for (std::size_t ti = 0; ti < train.size(); ++ti) {
    const int d = feat::hamming_distance_bounded(qd, train[ti], r.second);
    if (d < r.best) {
      r.second = r.best;
      r.best = d;
      r.best_index = ti;
    } else if (d < r.second) {
      r.second = d;
    }
  }
  return r;
}

inline best_pair scan_simple(const feat::descriptor& qd,
                             const std::vector<feat::descriptor>& train,
                             int max_distance) {
  best_pair r;
  for (std::size_t ti = 0; ti < train.size(); ++ti) {
    const int limit = std::min(r.best, max_distance);
    const int d = feat::hamming_distance_bounded(qd, train[ti], limit);
    if (d < r.best) {
      r.best = d;
      r.best_index = ti;
    }
  }
  return r;
}

// The accept decision on one query's scan result, shared by both lanes.
// On the instrumented lane the winning distance spends the decision in a
// register: a GPR fault site.
template <class H>
void accept(std::int64_t qi, const best_pair& r, const match_params& params,
            std::vector<match>& out) {
  const int best = H::g32(r.best);
  bool accepted = false;
  if (params.mode == match_mode::ratio_test) {
    accepted = r.second < 257 &&
               static_cast<double>(best) <
                   params.ratio * static_cast<double>(r.second);
  } else {
    accepted = best <= params.max_distance;
  }
  if (accepted) {
    out.push_back(
        match{static_cast<int>(qi), static_cast<int>(r.best_index), best});
  }
}

// Clean lane: query chunks fan out over the pool; per-chunk match vectors
// concatenated in chunk order reproduce the sequential ascending-query
// order exactly.  Candidate scans dispatch on core::simd::active(): the
// vectorized scans compute exact block distances with identical in-order
// bookkeeping, so the match list is the same at every SIMD level.
std::vector<match> match_descriptors_clean(const feat::frame_features& query,
                                           const feat::frame_features& train,
                                           const match_params& params) {
  std::vector<match> out;
  if (query.empty() || train.empty()) return out;

  const bool ratio = params.mode == match_mode::ratio_test;
  const simd::scan2_fn scan = ratio
                                  ? simd::select_scan2(core::simd::active())
                                  : simd::select_scan1(core::simd::active());

  const auto nq = static_cast<std::int64_t>(query.size());
  constexpr std::int64_t query_chunk = 32;
  const std::size_t chunks =
      core::thread_pool::chunk_count(0, nq, query_chunk);
  std::vector<std::vector<match>> partial(chunks);

  core::thread_pool::current().parallel_for(
      0, nq, query_chunk,
      [&](std::int64_t q0, std::int64_t q1, std::size_t chunk) {
        for (std::int64_t qi = q0; qi < q1; ++qi) {
          const feat::descriptor& qd =
              query.descriptors[static_cast<std::size_t>(qi)];
          best_pair r;
          if (scan != nullptr) {
            r = scan(qd, train.descriptors.data(), train.descriptors.size());
          } else if (ratio) {
            r = scan_ratio(qd, train.descriptors);
          } else {
            r = scan_simple(qd, train.descriptors, params.max_distance);
          }
          accept<rt::inert>(qi, r, params, partial[chunk]);
        }
      });

  std::size_t total = 0;
  for (const auto& p : partial) total += p.size();
  out.reserve(total);
  for (const auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::vector<match> match_descriptors_instrumented(
    const feat::frame_features& query, const feat::frame_features& train,
    const match_params& params) {
  rt::scope attributed(rt::fn::match);
  std::vector<match> out;
  if (query.empty() || train.empty()) return out;

  const auto nq = static_cast<std::size_t>(
      rt::ctrl(static_cast<std::int64_t>(query.size())));
  const auto nt = train.size();

  for (std::size_t qi = 0; qi < nq; ++qi) {
    // A corrupted query index reads a wrong (but guarded) descriptor.
    const feat::descriptor& qd =
        query.descriptors[rt::idx(static_cast<std::int64_t>(qi),
                                  query.descriptors.size())];
    best_pair r;
    if (params.mode == match_mode::ratio_test) {
      r = scan_ratio(qd, train.descriptors);
      // Scalar 4x (xor + popcount + add) per 256-bit distance plus 2-NN
      // bookkeeping, ~13 dynamic ops per candidate (OpenCV 2.4.9's
      // BFMatcher is scalar).
      rt::account(rt::op::int_alu, nt * 13);
    } else {
      r = scan_simple(qd, train.descriptors, params.max_distance);
      rt::account(rt::op::int_alu, nt * 6);  // early exit halves the work
    }
    rt::account(rt::op::branch, nt);
    accept<rt::live>(static_cast<std::int64_t>(qi), r, params, out);
  }
  return out;
}

}  // namespace

std::vector<match> match_descriptors(const feat::frame_features& query,
                                     const feat::frame_features& train,
                                     const match_params& params) {
  return core::dispatch(
      [&] { return match_descriptors_clean(query, train, params); },
      [&] { return match_descriptors_instrumented(query, train, params); });
}

std::vector<geo::point_pair> to_point_pairs(const std::vector<match>& matches,
                                            const feat::frame_features& query,
                                            const feat::frame_features& train) {
  std::vector<geo::point_pair> pairs;
  pairs.reserve(matches.size());
  for (const auto& m : matches) {
    if (m.query < 0 || m.train < 0 ||
        static_cast<std::size_t>(m.query) >= query.size() ||
        static_cast<std::size_t>(m.train) >= train.size()) {
      throw invalid_argument("to_point_pairs: match index out of range");
    }
    const auto& qk = query.keypoints[static_cast<std::size_t>(m.query)];
    const auto& tk = train.keypoints[static_cast<std::size_t>(m.train)];
    pairs.push_back({{qk.x, qk.y}, {tk.x, tk.y}});
  }
  return pairs;
}

}  // namespace vs::match
