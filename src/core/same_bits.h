// Bit-for-bit equality of trivially copyable values and of vectors of them.
//
// Floating-point members compare by representation, not by value: -0.0
// differs from 0.0 and a NaN equals itself.  That is the equality a state
// comparison needs when later arithmetic may tell the two apart (a flipped
// sign bit on a zero is invisible to ==, not to atan2).  Padding bytes
// have unspecified contents, so pass padding-free types only; callers
// static_assert their layout.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

namespace vs {

template <class T>
[[nodiscard]] bool same_bits(const T* a, const T* b, std::size_t n) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

template <class T>
[[nodiscard]] bool same_bits(const T& a, const T& b) noexcept {
  return same_bits(&a, &b, 1);
}

template <class T>
[[nodiscard]] bool same_bits(const std::vector<T>& a,
                             const std::vector<T>& b) noexcept {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

}  // namespace vs
