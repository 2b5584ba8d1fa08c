// Keypoint and descriptor types shared by detection and matching.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace vs::feat {

/// A detected corner with its FAST score and ORB orientation.
struct keypoint {
  float x = 0.0f;
  float y = 0.0f;
  float score = 0.0f;  ///< FAST corner score (sum of absolute differences)
  float angle = 0.0f;  ///< orientation in radians (intensity centroid)

  // Exact comparison: detection is deterministic and byte-identical across
  // lanes, so the equivalence checks compare bit patterns, not tolerances.
  bool operator==(const keypoint&) const = default;
};

/// 256-bit binary descriptor (rotated BRIEF), stored as 4 words.
///
/// The word array is 32-byte aligned so a descriptor is exactly one aligned
/// AVX2 lane: contiguous std::vector<descriptor> storage is then a dense
/// array of aligned 256-bit rows the SIMD Hamming scans can load with
/// aligned moves (over-aligned types get correctly aligned heap storage
/// from operator new since C++17).
struct descriptor {
  alignas(32) std::array<std::uint64_t, 4> bits = {};

  bool operator==(const descriptor&) const = default;
};

// The SIMD matcher indexes descriptor arrays as raw 32-byte rows; any
// padding or alignment drift would silently desynchronize those loads.
static_assert(sizeof(descriptor) == 32, "descriptor must be exactly 256 bits");
static_assert(alignof(descriptor) == 32, "descriptor rows must be one AVX2 lane");
static_assert(sizeof(descriptor[2]) == 64, "descriptor arrays must be dense");

/// Hamming distance between two 256-bit descriptors (0..256).
[[nodiscard]] int hamming_distance(const descriptor& a,
                                   const descriptor& b) noexcept;

/// Hamming distance with early exit, checked after every 64-bit word:
/// returns bound + 1 as soon as the partial distance exceeds `bound`, and
/// the exact distance otherwise.  Equivalently:
///
///     hamming_distance_bounded(a, b, k) ==
///         min(hamming_distance(a, b), k + 1)   for any k >= 0
///
/// so any bound >= 256 degenerates to the unbounded distance.  This
/// contract is what makes the bounded 2-NN/1-NN scans output-identical to
/// full scans (every clipped value is rejected by the same comparisons that
/// would reject the exact one) while VS_SM's bounded 1-NN search stays
/// cheaper than the full ratio-test search.
[[nodiscard]] int hamming_distance_bounded(const descriptor& a,
                                           const descriptor& b,
                                           int bound) noexcept;

/// Keypoints plus their descriptors for one frame.
struct frame_features {
  std::vector<keypoint> keypoints;
  std::vector<descriptor> descriptors;

  [[nodiscard]] std::size_t size() const noexcept { return keypoints.size(); }
  [[nodiscard]] bool empty() const noexcept { return keypoints.empty(); }

  bool operator==(const frame_features&) const = default;
};

}  // namespace vs::feat
