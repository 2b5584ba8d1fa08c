#include "geometry/homography.h"

#include <cmath>
#include <vector>

#include "core/error.h"
#include "geometry/linalg.h"
#include "rt/instrument.h"

namespace vs::geo {

namespace {

struct normalization {
  mat3 transform;  ///< maps raw points to normalized points
  std::vector<vec2> points;
};

// Hartley normalization: translate centroid to origin, scale mean distance
// to sqrt(2).  Greatly improves the conditioning of the DLT system.
normalization normalize_points(std::span<const point_pair> pairs, bool src) {
  rt::scope attributed(rt::fn::homography);
  normalization out;
  out.points.reserve(pairs.size());
  double cx = 0.0;
  double cy = 0.0;
  for (const auto& p : pairs) {
    const vec2 q = src ? p.src : p.dst;
    cx += q.x;
    cy += q.y;
  }
  const auto n = static_cast<double>(pairs.size());
  cx /= n;
  cy /= n;
  double mean_dist = 0.0;
  for (const auto& p : pairs) {
    const vec2 q = src ? p.src : p.dst;
    mean_dist += std::hypot(q.x - cx, q.y - cy);
  }
  mean_dist /= n;
  rt::account(rt::op::fp_alu, 8 * pairs.size());
  const double scale = mean_dist > 1e-12 ? std::sqrt(2.0) / mean_dist : 1.0;
  out.transform = mat3::scaling(scale, scale) * mat3::translation(-cx, -cy);
  for (const auto& p : pairs) {
    const vec2 q = src ? p.src : p.dst;
    out.points.push_back({(q.x - cx) * scale, (q.y - cy) * scale});
  }
  return out;
}

}  // namespace

std::optional<mat3> estimate_homography(std::span<const point_pair> pairs) {
  if (pairs.size() < homography_min_pairs) return std::nullopt;
  rt::scope attributed(rt::fn::homography);

  const normalization src_norm = normalize_points(pairs, /*src=*/true);
  const normalization dst_norm = normalize_points(pairs, /*src=*/false);

  // Each correspondence contributes two rows of the linear system in the 8
  // unknowns (h00..h21), with h22 fixed at 1:
  //   [x y 1 0 0 0 -x*u -y*u] h = u
  //   [0 0 0 x y 1 -x*v -y*v] h = v
  const std::size_t rows = 2 * pairs.size();
  std::vector<double> a(rows * 8, 0.0);
  std::vector<double> b(rows, 0.0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Route the coordinates feeding the solver through FPR fault sites: a
    // flipped bit here corrupts the estimated model exactly the way a
    // register strike during matrix assembly would.
    const double x = rt::f64(src_norm.points[i].x);
    const double y = rt::f64(src_norm.points[i].y);
    const double u = rt::f64(dst_norm.points[i].x);
    const double v = rt::f64(dst_norm.points[i].y);
    double* r0 = &a[(2 * i) * 8];
    double* r1 = &a[(2 * i + 1) * 8];
    r0[0] = x;
    r0[1] = y;
    r0[2] = 1.0;
    r0[6] = -x * u;
    r0[7] = -y * u;
    b[2 * i] = u;
    r1[3] = x;
    r1[4] = y;
    r1[5] = 1.0;
    r1[6] = -x * v;
    r1[7] = -y * v;
    b[2 * i + 1] = v;
  }
  rt::account(rt::op::fp_alu, 24 * pairs.size());

  const auto h = solve_least_squares(a, b, rows, 8);
  rt::account(rt::op::fp_alu, 8 * 8 * rows + 8 * 8 * 8 / 3);
  if (!h) return std::nullopt;

  const mat3 normalized((*h)[0], (*h)[1], (*h)[2], (*h)[3], (*h)[4], (*h)[5],
                        (*h)[6], (*h)[7], 1.0);

  // Denormalize: H = T_dst^-1 * Hn * T_src.
  const auto dst_inv = dst_norm.transform.inverse();
  if (!dst_inv) return std::nullopt;
  mat3 result = (*dst_inv) * normalized * src_norm.transform;
  result.normalize();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (!std::isfinite(result(i, j))) return std::nullopt;
    }
  }
  return result;
}

double reprojection_error(const mat3& h, const point_pair& p) {
  const vec2 mapped = h.apply(p.src);
  const double dx = rt::f64(mapped.x - p.dst.x);
  const double dy = rt::f64(mapped.y - p.dst.y);
  rt::account(rt::op::fp_alu, 12);
  return std::sqrt(dx * dx + dy * dy);
}

bool plausible_homography(const mat3& h, double limit) {
  if (!h.is_affine(0.02)) {
    // Strong perspective components flip or fold the plane; reject models
    // whose projective terms would map the frame across the horizon.
    const double p = std::abs(h(2, 0)) + std::abs(h(2, 1));
    if (p > 0.02) return false;
  }
  // Scale of the linear part via its singular-value bounds (cheap proxy:
  // column norms of the 2x2 block).
  const double c0 = std::hypot(h(0, 0), h(1, 0));
  const double c1 = std::hypot(h(0, 1), h(1, 1));
  const double det2 = h(0, 0) * h(1, 1) - h(0, 1) * h(1, 0);
  if (det2 <= 0.0) return false;  // reflection or collapse
  const double lo = 1.0 / limit;
  return c0 > lo && c0 < limit && c1 > lo && c1 < limit;
}

}  // namespace vs::geo
