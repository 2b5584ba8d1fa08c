// 3x3 double matrix for planar projective transforms (homographies).
#pragma once

#include <array>
#include <optional>

#include "geometry/vec2.h"

namespace vs::geo {

class mat3 {
 public:
  /// Zero matrix.
  constexpr mat3() = default;

  /// Row-major construction.
  constexpr mat3(double a, double b, double c, double d, double e, double f,
                 double g, double h, double i)
      : m_{a, b, c, d, e, f, g, h, i} {}

  [[nodiscard]] static constexpr mat3 identity() {
    return {1, 0, 0, 0, 1, 0, 0, 0, 1};
  }
  [[nodiscard]] static constexpr mat3 translation(double tx, double ty) {
    return {1, 0, tx, 0, 1, ty, 0, 0, 1};
  }
  [[nodiscard]] static constexpr mat3 scaling(double sx, double sy) {
    return {sx, 0, 0, 0, sy, 0, 0, 0, 1};
  }
  /// Rotation by `radians` counter-clockwise about the origin.
  [[nodiscard]] static mat3 rotation(double radians);
  /// Affine matrix from the 6 coefficients [a b tx; c d ty; 0 0 1].
  [[nodiscard]] static constexpr mat3 affine(double a, double b, double tx,
                                             double c, double d, double ty) {
    return {a, b, tx, c, d, ty, 0, 0, 1};
  }

  double& operator()(int row, int col) { return m_[row * 3 + col]; }
  double operator()(int row, int col) const { return m_[row * 3 + col]; }

  [[nodiscard]] mat3 operator*(const mat3& o) const;
  [[nodiscard]] mat3 operator*(double s) const;
  [[nodiscard]] mat3 operator+(const mat3& o) const;

  /// Determinant.
  [[nodiscard]] double det() const;

  /// Inverse via adjugate; nullopt when |det| is below `eps`.
  [[nodiscard]] std::optional<mat3> inverse(double eps = 1e-12) const;

  /// Applies the projective transform to a point (divides by w).
  /// Points mapped near the plane at infinity (|w| < 1e-12) are sent to a
  /// large sentinel coordinate instead of dividing by zero.
  [[nodiscard]] vec2 apply(vec2 p) const;

  /// Scales the matrix so that m(2,2) == 1 (no-op when |m22| < eps).
  void normalize();

  /// True when the bottom row is (0, 0, 1) within `eps` — i.e. affine.
  [[nodiscard]] bool is_affine(double eps = 1e-9) const;

  /// Max absolute element-wise difference to another matrix, after both are
  /// normalized to m22 == 1 (projective equality test).
  [[nodiscard]] double projective_distance(const mat3& o) const;

  bool operator==(const mat3&) const = default;

 private:
  std::array<double, 9> m_ = {};
};

}  // namespace vs::geo
