// 2-D point/vector type used across features, matching and geometry.
#pragma once

#include <cmath>

namespace vs::geo {

struct vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr vec2() = default;
  constexpr vec2(double px, double py) : x(px), y(py) {}

  constexpr vec2 operator+(vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr vec2 operator-(vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr vec2 operator/(double s) const { return {x / s, y / s}; }

  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y); }
  [[nodiscard]] constexpr double dot(vec2 o) const { return x * o.x + y * o.y; }

  constexpr bool operator==(const vec2&) const = default;
};

/// Euclidean distance between two points.
[[nodiscard]] inline double distance(vec2 a, vec2 b) { return (a - b).norm(); }

/// A correspondence between a point in the source image and a point in the
/// destination image (the unit RANSAC and the solvers operate on).
struct point_pair {
  vec2 src;
  vec2 dst;
};

}  // namespace vs::geo
