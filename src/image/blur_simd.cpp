#include "image/blur_simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vs::img::simd {

namespace {

void blur_row_scalar(const std::uint8_t* above, const std::uint8_t* row,
                     const std::uint8_t* below, int width, std::uint8_t* out) {
  for (int x = 1; x < width - 1; ++x) {
    const int sum = above[x - 1] + above[x] + above[x + 1] + row[x - 1] +
                    row[x] + row[x + 1] + below[x - 1] + below[x] +
                    below[x + 1];
    out[x] = static_cast<std::uint8_t>((sum + 4) / 9);
  }
}

#if defined(__x86_64__)

// Each tier blurs one block of columns starting at x; a run narrower than
// one block goes to the next tier down, and a ragged tail is covered by
// one last block ending at width - 1 (recomputing a few columns).

__attribute__((target("sse4.2"))) inline __m128i widen8(
    const std::uint8_t* p) {
  return _mm_cvtepu8_epi16(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("sse4.2"))) inline __m128i column_sum8(
    const std::uint8_t* p) {
  return _mm_add_epi16(_mm_add_epi16(widen8(p - 1), widen8(p)), widen8(p + 1));
}

__attribute__((target("sse4.2"))) inline void blur_block8(
    const std::uint8_t* above, const std::uint8_t* row,
    const std::uint8_t* below, int x, std::uint8_t* out) {
  const __m128i sum = _mm_add_epi16(
      _mm_add_epi16(column_sum8(above + x), column_sum8(row + x)),
      _mm_add_epi16(column_sum8(below + x), _mm_set1_epi16(4)));
  const __m128i mean = _mm_mulhi_epu16(
      sum, _mm_set1_epi16(static_cast<short>(div9_multiplier)));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out + x),
                   _mm_packus_epi16(mean, mean));
}

__attribute__((target("sse4.2"))) void blur_row_sse4(
    const std::uint8_t* above, const std::uint8_t* row,
    const std::uint8_t* below, int width, std::uint8_t* out) {
  const int x1 = width - 1;
  if (x1 - 1 < 8) {
    blur_row_scalar(above, row, below, width, out);
    return;
  }
  int x = 1;
  for (; x + 8 <= x1; x += 8) blur_block8(above, row, below, x, out);
  if (x < x1) blur_block8(above, row, below, x1 - 8, out);
}

__attribute__((target("avx2"))) inline __m256i widen16(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline __m256i column_sum16(
    const std::uint8_t* p) {
  return _mm256_add_epi16(_mm256_add_epi16(widen16(p - 1), widen16(p)),
                          widen16(p + 1));
}

__attribute__((target("avx2"))) inline void blur_block16(
    const std::uint8_t* above, const std::uint8_t* row,
    const std::uint8_t* below, int x, std::uint8_t* out) {
  const __m256i sum = _mm256_add_epi16(
      _mm256_add_epi16(column_sum16(above + x), column_sum16(row + x)),
      _mm256_add_epi16(column_sum16(below + x), _mm256_set1_epi16(4)));
  const __m256i mean = _mm256_mulhi_epu16(
      sum, _mm256_set1_epi16(static_cast<short>(div9_multiplier)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                   _mm_packus_epi16(_mm256_castsi256_si128(mean),
                                    _mm256_extracti128_si256(mean, 1)));
}

__attribute__((target("avx2"))) void blur_row_avx2(
    const std::uint8_t* above, const std::uint8_t* row,
    const std::uint8_t* below, int width, std::uint8_t* out) {
  const int x1 = width - 1;
  if (x1 - 1 < 16) {
    blur_row_sse4(above, row, below, width, out);
    return;
  }
  int x = 1;
  for (; x + 16 <= x1; x += 16) blur_block16(above, row, below, x, out);
  if (x < x1) blur_block16(above, row, below, x1 - 16, out);
}

#endif  // __x86_64__

}  // namespace

blur_row_fn select_blur_row(core::simd::level l) noexcept {
#if defined(__x86_64__)
  if (l >= core::simd::level::avx2) return &blur_row_avx2;
  if (l >= core::simd::level::sse4) return &blur_row_sse4;
#else
  (void)l;
#endif
  return &blur_row_scalar;
}

}  // namespace vs::img::simd
