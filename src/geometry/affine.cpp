#include "geometry/affine.h"

#include <cmath>
#include <vector>

#include "geometry/linalg.h"
#include "rt/instrument.h"

namespace vs::geo {

std::optional<mat3> estimate_affine(std::span<const point_pair> pairs) {
  if (pairs.size() < affine_min_pairs) return std::nullopt;
  rt::scope attributed(rt::fn::homography);

  // Two independent 3-unknown least-squares systems (x and y rows share the
  // same design matrix [x y 1]).
  const std::size_t rows = pairs.size();
  std::vector<double> a(rows * 3, 0.0);
  std::vector<double> bx(rows, 0.0);
  std::vector<double> by(rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    a[i * 3] = rt::f64(pairs[i].src.x);
    a[i * 3 + 1] = rt::f64(pairs[i].src.y);
    a[i * 3 + 2] = 1.0;
    bx[i] = pairs[i].dst.x;
    by[i] = pairs[i].dst.y;
  }
  rt::account(rt::op::fp_alu, 14 * rows);

  const auto row_x = solve_least_squares(a, bx, rows, 3);
  const auto row_y = solve_least_squares(a, by, rows, 3);
  if (!row_x || !row_y) return std::nullopt;

  mat3 m = mat3::affine((*row_x)[0], (*row_x)[1], (*row_x)[2], (*row_y)[0],
                        (*row_y)[1], (*row_y)[2]);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (!std::isfinite(m(i, j))) return std::nullopt;
    }
  }
  return m;
}

}  // namespace vs::geo
