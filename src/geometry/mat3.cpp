#include "geometry/mat3.h"

#include <cmath>

namespace vs::geo {

mat3 mat3::rotation(double radians) {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  return {c, -s, 0, s, c, 0, 0, 0, 1};
}

mat3 mat3::operator*(const mat3& o) const {
  mat3 r;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double sum = 0.0;
      for (int k = 0; k < 3; ++k) sum += (*this)(i, k) * o(k, j);
      r(i, j) = sum;
    }
  }
  return r;
}

mat3 mat3::operator*(double s) const {
  mat3 r = *this;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) r(i, j) *= s;
  }
  return r;
}

mat3 mat3::operator+(const mat3& o) const {
  mat3 r = *this;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) r(i, j) += o(i, j);
  }
  return r;
}

double mat3::det() const {
  const auto& m = *this;
  return m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1)) -
         m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0)) +
         m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0));
}

std::optional<mat3> mat3::inverse(double eps) const {
  const double d = det();
  if (!std::isfinite(d) || std::abs(d) < eps) return std::nullopt;
  const auto& m = *this;
  const double inv_d = 1.0 / d;
  mat3 r;
  r(0, 0) = (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1)) * inv_d;
  r(0, 1) = (m(0, 2) * m(2, 1) - m(0, 1) * m(2, 2)) * inv_d;
  r(0, 2) = (m(0, 1) * m(1, 2) - m(0, 2) * m(1, 1)) * inv_d;
  r(1, 0) = (m(1, 2) * m(2, 0) - m(1, 0) * m(2, 2)) * inv_d;
  r(1, 1) = (m(0, 0) * m(2, 2) - m(0, 2) * m(2, 0)) * inv_d;
  r(1, 2) = (m(0, 2) * m(1, 0) - m(0, 0) * m(1, 2)) * inv_d;
  r(2, 0) = (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0)) * inv_d;
  r(2, 1) = (m(0, 1) * m(2, 0) - m(0, 0) * m(2, 1)) * inv_d;
  r(2, 2) = (m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0)) * inv_d;
  return r;
}

vec2 mat3::apply(vec2 p) const {
  const auto& m = *this;
  const double w = m(2, 0) * p.x + m(2, 1) * p.y + m(2, 2);
  const double x = m(0, 0) * p.x + m(0, 1) * p.y + m(0, 2);
  const double y = m(1, 0) * p.x + m(1, 1) * p.y + m(1, 2);
  if (std::abs(w) < 1e-12) {
    constexpr double far = 1e15;
    return {x >= 0 ? far : -far, y >= 0 ? far : -far};
  }
  return {x / w, y / w};
}

void mat3::normalize() {
  const double w = (*this)(2, 2);
  if (std::abs(w) < 1e-300) return;
  const double inv = 1.0 / w;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) (*this)(i, j) *= inv;
  }
}

bool mat3::is_affine(double eps) const {
  const auto& m = *this;
  return std::abs(m(2, 0)) < eps && std::abs(m(2, 1)) < eps &&
         std::abs(m(2, 2) - 1.0) < eps;
}

double mat3::projective_distance(const mat3& o) const {
  mat3 a = *this;
  mat3 b = o;
  a.normalize();
  b.normalize();
  double worst = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

}  // namespace vs::geo
