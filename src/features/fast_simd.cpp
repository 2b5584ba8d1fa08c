#include "features/fast_simd.h"

#include <algorithm>
#include <cstddef>

#include "features/fast.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vs::feat::simd {

namespace {

// Scalar twin: the compass pre-test (at least two of the four compass
// pixels must differ from the center by >= threshold), then fast_score on
// the survivors.
void score_row_scalar(const img::image_u8& gray, int y, int x0, int x1,
                      int threshold, std::int16_t* out) {
  const int w = gray.width();
  const std::uint8_t* row = gray.data() + static_cast<std::ptrdiff_t>(y) * w;
  for (int x = x0; x < x1; ++x) {
    const int center = row[x];
    const int probes[4] = {row[x - 3 * w], row[x + 3 * w], row[x - 3],
                           row[x + 3]};
    int extreme = 0;
    for (const int v : probes) {
      extreme += (v >= center + threshold || v <= center - threshold) ? 1 : 0;
    }
    out[x] = extreme < 2 ? std::int16_t{0}
                         : static_cast<std::int16_t>(
                               fast_score(gray, x, y, threshold));
  }
}

#if defined(__x86_64__)

// Both vector tiers follow the same steps in 16-bit lanes: a circle pixel,
// center +/- the threshold (|value| <= 510) and a score sum (<= 16 * 254)
// all fit.  A run narrower than one vector goes to the next tier down;
// otherwise a ragged tail is covered by one last vector ending at x1,
// which rescoring a few columns leaves unchanged.

struct circle_offsets {
  std::ptrdiff_t at[16];
  explicit circle_offsets(int width) {
    for (int i = 0; i < 16; ++i) {
      at[i] = static_cast<std::ptrdiff_t>(circle_dy[i]) * width + circle_dx[i];
    }
  }
};

// Non-zero lanes of the result mark a circular run of >= 9 set bits in
// `m`: bit i of run2 is m[i..i+1], of run4 m[i..i+3], of run8 m[i..i+7],
// and of the result m[i..i+8] (indices mod 16, so 15 -> 0 wraps).
__attribute__((target("sse4.2"))) inline __m128i rotr16_sse4(__m128i m,
                                                              int k) {
  return _mm_or_si128(_mm_srli_epi16(m, k), _mm_slli_epi16(m, 16 - k));
}

__attribute__((target("sse4.2"))) inline __m128i arc9_sse4(__m128i m) {
  const __m128i run2 = _mm_and_si128(m, rotr16_sse4(m, 1));
  const __m128i run4 = _mm_and_si128(run2, rotr16_sse4(run2, 2));
  const __m128i run8 = _mm_and_si128(run4, rotr16_sse4(run4, 4));
  return _mm_and_si128(run8, rotr16_sse4(m, 8));
}

__attribute__((target("sse4.2"))) inline __m128i widen8(
    const std::uint8_t* p) {
  return _mm_cvtepu8_epi16(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

// Scores the 8 columns whose centers start at `p`.
__attribute__((target("sse4.2"))) inline __m128i score_block8(
    const std::uint8_t* p, const circle_offsets& circle, __m128i threshold) {
  const __m128i one = _mm_set1_epi16(1);
  const __m128i center = widen8(p);
  const __m128i bright_ref = _mm_add_epi16(center, threshold);  // v >= c + t
  const __m128i dark_ref = _mm_sub_epi16(center, threshold);    // v <= c - t
  const __m128i bright_gt = _mm_sub_epi16(bright_ref, one);
  const __m128i dark_lt = _mm_add_epi16(dark_ref, one);
  __m128i bright_bits = _mm_setzero_si128();
  __m128i dark_bits = _mm_setzero_si128();
  __m128i bright_sum = _mm_setzero_si128();
  __m128i dark_sum = _mm_setzero_si128();
  for (int i = 0; i < 16; ++i) {
    const __m128i v = widen8(p + circle.at[i]);
    const __m128i bright = _mm_cmpgt_epi16(v, bright_gt);
    const __m128i dark = _mm_cmpgt_epi16(dark_lt, v);
    const __m128i bit = _mm_set1_epi16(static_cast<short>(1 << i));
    bright_bits = _mm_or_si128(bright_bits, _mm_and_si128(bright, bit));
    dark_bits = _mm_or_si128(dark_bits, _mm_and_si128(dark, bit));
    bright_sum = _mm_add_epi16(
        bright_sum, _mm_and_si128(bright, _mm_sub_epi16(v, bright_ref)));
    dark_sum = _mm_add_epi16(dark_sum,
                             _mm_and_si128(dark, _mm_sub_epi16(dark_ref, v)));
  }
  const __m128i zero = _mm_setzero_si128();
  const __m128i no_bright = _mm_cmpeq_epi16(arc9_sse4(bright_bits), zero);
  const __m128i no_dark = _mm_cmpeq_epi16(arc9_sse4(dark_bits), zero);
  // Both sums are >= 0, so the max of the kept sums is the lone arc's sum,
  // the larger one when both arcs exist, and 0 when neither does.
  return _mm_max_epi16(_mm_andnot_si128(no_bright, bright_sum),
                       _mm_andnot_si128(no_dark, dark_sum));
}

__attribute__((target("sse4.2"))) void score_row_sse4(
    const img::image_u8& gray, int y, int x0, int x1, int threshold,
    std::int16_t* out) {
  if (threshold > 255) {
    // No byte differs from another by more than 255: nothing is a corner.
    std::fill(out + x0, out + x1, std::int16_t{0});
    return;
  }
  if (x1 - x0 < 8) {
    score_row_scalar(gray, y, x0, x1, threshold, out);
    return;
  }
  const int w = gray.width();
  const circle_offsets circle(w);
  const std::uint8_t* row = gray.data() + static_cast<std::ptrdiff_t>(y) * w;
  const __m128i t = _mm_set1_epi16(static_cast<short>(threshold));
  for (int x = x0;; x += 8) {
    if (x + 8 > x1) x = x1 - 8;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     score_block8(row + x, circle, t));
    if (x + 8 == x1) break;
  }
}

__attribute__((target("avx2"))) inline __m256i rotr16_avx2(__m256i m,
                                                            int k) {
  return _mm256_or_si256(_mm256_srli_epi16(m, k),
                         _mm256_slli_epi16(m, 16 - k));
}

__attribute__((target("avx2"))) inline __m256i arc9_avx2(__m256i m) {
  const __m256i run2 = _mm256_and_si256(m, rotr16_avx2(m, 1));
  const __m256i run4 = _mm256_and_si256(run2, rotr16_avx2(run2, 2));
  const __m256i run8 = _mm256_and_si256(run4, rotr16_avx2(run4, 4));
  return _mm256_and_si256(run8, rotr16_avx2(m, 8));
}

__attribute__((target("avx2"))) inline __m256i widen16(
    const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// Scores the 16 columns whose centers start at `p`.
__attribute__((target("avx2"))) inline __m256i score_block16(
    const std::uint8_t* p, const circle_offsets& circle, __m256i threshold) {
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i center = widen16(p);
  const __m256i bright_ref = _mm256_add_epi16(center, threshold);
  const __m256i dark_ref = _mm256_sub_epi16(center, threshold);
  const __m256i bright_gt = _mm256_sub_epi16(bright_ref, one);
  const __m256i dark_lt = _mm256_add_epi16(dark_ref, one);
  __m256i bright_bits = _mm256_setzero_si256();
  __m256i dark_bits = _mm256_setzero_si256();
  __m256i bright_sum = _mm256_setzero_si256();
  __m256i dark_sum = _mm256_setzero_si256();
  for (int i = 0; i < 16; ++i) {
    const __m256i v = widen16(p + circle.at[i]);
    const __m256i bright = _mm256_cmpgt_epi16(v, bright_gt);
    const __m256i dark = _mm256_cmpgt_epi16(dark_lt, v);
    const __m256i bit = _mm256_set1_epi16(static_cast<short>(1 << i));
    bright_bits = _mm256_or_si256(bright_bits, _mm256_and_si256(bright, bit));
    dark_bits = _mm256_or_si256(dark_bits, _mm256_and_si256(dark, bit));
    bright_sum = _mm256_add_epi16(
        bright_sum, _mm256_and_si256(bright, _mm256_sub_epi16(v, bright_ref)));
    dark_sum = _mm256_add_epi16(
        dark_sum, _mm256_and_si256(dark, _mm256_sub_epi16(dark_ref, v)));
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i no_bright = _mm256_cmpeq_epi16(arc9_avx2(bright_bits), zero);
  const __m256i no_dark = _mm256_cmpeq_epi16(arc9_avx2(dark_bits), zero);
  return _mm256_max_epi16(_mm256_andnot_si256(no_bright, bright_sum),
                          _mm256_andnot_si256(no_dark, dark_sum));
}

__attribute__((target("avx2"))) void score_row_avx2(
    const img::image_u8& gray, int y, int x0, int x1, int threshold,
    std::int16_t* out) {
  if (threshold > 255 || x1 - x0 < 16) {
    score_row_sse4(gray, y, x0, x1, threshold, out);
    return;
  }
  const int w = gray.width();
  const circle_offsets circle(w);
  const std::uint8_t* row = gray.data() + static_cast<std::ptrdiff_t>(y) * w;
  const __m256i t = _mm256_set1_epi16(static_cast<short>(threshold));
  for (int x = x0;; x += 16) {
    if (x + 16 > x1) x = x1 - 16;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + x),
                        score_block16(row + x, circle, t));
    if (x + 16 == x1) break;
  }
}

#endif  // __x86_64__

}  // namespace

score_row_fn select_score_row(core::simd::level l) noexcept {
#if defined(__x86_64__)
  if (l >= core::simd::level::avx2) return &score_row_avx2;
  if (l >= core::simd::level::sse4) return &score_row_sse4;
#else
  (void)l;
#endif
  return &score_row_scalar;
}

}  // namespace vs::feat::simd
