// Cross-frame descriptor cache (feature-based video compression idea,
// arXiv 1605.08470): keypoints and descriptors extracted on one frame are
// carried into the next overlapping frame by warping their positions
// through the estimated inter-frame motion, so restricted (delta) frames
// only extract features in newly-revealed image area and reuse the cached
// ones for the shared region.
//
// Determinism contract: the cache is mutated only at the stitch point of
// the sequential frame loop, entries are kept in insertion-stamp order,
// dedup is by quantized warped position (newest wins), and eviction drops
// the oldest stamp first — so cache contents, and therefore everything
// matched against them, are byte-identical across pool widths, lookahead
// depths and SIMD levels.  The cache is plain copyable state: the recovery
// boundary snapshots and restores it with the rest of the per-frame state,
// and invalidation on retry/dead-reckon is a reset().
#pragma once

#include <cstdint>
#include <vector>

#include "features/keypoint.h"
#include "geometry/mat3.h"

namespace vs::gate {

class desc_cache {
 public:
  desc_cache() = default;
  desc_cache(std::size_t capacity, int max_age)
      : capacity_(capacity), max_age_(max_age) {}

  /// Re-arms the bounds and drops every entry.
  void configure(std::size_t capacity, int max_age);

  /// Drops every entry (bounds keep their configuration).
  void reset();

  /// Carries the cache across one frame step: every entry's position is
  /// mapped through `prev_to_cur`; entries leaving the usable area
  /// ([border, dim - border) on both axes), exceeding max_age, or whose
  /// position cannot be mapped are dropped.  Ages every survivor by one.
  void rebase(const geo::mat3& prev_to_cur, int width, int height,
              int border);

  /// Inserts freshly extracted features at age 0.  An existing entry in
  /// the same quantized position cell is replaced (the fresh measurement
  /// wins); when the capacity bound is exceeded the oldest stamps are
  /// evicted first.
  void insert(const feat::frame_features& fresh);

  /// reset() + insert(): a fully processed frame re-seeds the cache.
  void refill(const feat::frame_features& full);

  /// All live entries as a feature set, in insertion-stamp order.
  [[nodiscard]] feat::frame_features snapshot() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] int max_age() const noexcept { return max_age_; }
  /// Entries dropped by capacity eviction since configure()/reset().
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Bit-for-bit equal state: keypoint coordinates compare by their
  /// representation, so -0.0f and 0.0f differ (a campaign's rejoin test
  /// must not call two states equal that later arithmetic can tell apart).
  [[nodiscard]] bool identical(const desc_cache& other) const noexcept;

 private:
  struct entry {
    feat::keypoint kp;       // position in the *current* frame's coordinates
    feat::descriptor desc;
    int age = 0;             // frames since extraction
    std::uint64_t stamp = 0; // insertion order (eviction key)
  };

  std::vector<entry> entries_;  // ascending stamp order
  std::size_t capacity_ = 400;
  int max_age_ = 4;
  std::uint64_t next_stamp_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace vs::gate
