// Affine transform estimation — the fallback model the VS pipeline uses when
// too few matches survive for a full homography (Section III-A of the paper).
#pragma once

#include <optional>
#include <span>

#include "geometry/mat3.h"
#include "geometry/vec2.h"

namespace vs::geo {

inline constexpr std::size_t affine_min_pairs = 3;

/// Least-squares affine estimate (6 unknowns) from >= 3 correspondences.
/// Returns nullopt for degenerate (collinear) configurations.
[[nodiscard]] std::optional<mat3> estimate_affine(
    std::span<const point_pair> pairs);

}  // namespace vs::geo
