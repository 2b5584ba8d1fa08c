#include "gate/desc_cache.h"

#include <algorithm>
#include <cmath>

#include "core/same_bits.h"

namespace vs::gate {

namespace {

// Position cells quantize to whole pixels: two entries whose warped
// positions round to the same pixel describe the same image structure, and
// the fresher measurement supersedes the staler one.
struct cell {
  int x;
  int y;
  bool operator==(const cell&) const = default;
};

cell cell_of(const feat::keypoint& kp) noexcept {
  return {static_cast<int>(std::lround(kp.x)),
          static_cast<int>(std::lround(kp.y))};
}

}  // namespace

void desc_cache::configure(std::size_t capacity, int max_age) {
  capacity_ = capacity;
  max_age_ = max_age;
  reset();
}

bool desc_cache::identical(const desc_cache& other) const noexcept {
  static_assert(sizeof(feat::keypoint) == 4 * sizeof(float));
  if (entries_.size() != other.entries_.size() ||
      capacity_ != other.capacity_ || max_age_ != other.max_age_ ||
      next_stamp_ != other.next_stamp_ || evictions_ != other.evictions_) {
    return false;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const entry& a = entries_[i];
    const entry& b = other.entries_[i];
    if (!same_bits(a.kp, b.kp) || !(a.desc == b.desc) || a.age != b.age ||
        a.stamp != b.stamp) {
      return false;
    }
  }
  return true;
}

void desc_cache::reset() {
  entries_.clear();
  next_stamp_ = 0;
  evictions_ = 0;
}

void desc_cache::rebase(const geo::mat3& prev_to_cur, int width, int height,
                        int border) {
  std::vector<entry> kept;
  kept.reserve(entries_.size());
  for (entry& e : entries_) {
    if (e.age + 1 > max_age_) continue;
    const geo::vec2 p = prev_to_cur.apply({e.kp.x, e.kp.y});
    if (!(p.x >= border && p.x < width - border && p.y >= border &&
          p.y < height - border)) {
      continue;  // left the usable area (or mapped to non-finite)
    }
    e.kp.x = static_cast<float>(p.x);
    e.kp.y = static_cast<float>(p.y);
    ++e.age;
    kept.push_back(e);
  }
  entries_ = std::move(kept);
}

void desc_cache::insert(const feat::frame_features& fresh) {
  const std::size_t n =
      std::min(fresh.keypoints.size(), fresh.descriptors.size());
  for (std::size_t i = 0; i < n; ++i) {
    const cell c = cell_of(fresh.keypoints[i]);
    for (std::size_t j = 0; j < entries_.size(); ++j) {
      if (cell_of(entries_[j].kp) == c) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(j));
        break;
      }
    }
    entries_.push_back(
        {fresh.keypoints[i], fresh.descriptors[i], 0, next_stamp_++});
  }
  while (entries_.size() > capacity_) {
    entries_.erase(entries_.begin());  // oldest stamp first
    ++evictions_;
  }
}

void desc_cache::refill(const feat::frame_features& full) {
  const std::uint64_t evicted = evictions_;
  reset();
  evictions_ = evicted;
  insert(full);
}

feat::frame_features desc_cache::snapshot() const {
  feat::frame_features out;
  out.keypoints.reserve(entries_.size());
  out.descriptors.reserve(entries_.size());
  for (const entry& e : entries_) {
    out.keypoints.push_back(e.kp);
    out.descriptors.push_back(e.desc);
  }
  return out;
}

}  // namespace vs::gate
