#include "tensor/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::tensor::kernels {

void add(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  // addps rounds each lane exactly like the scalar addss. A lone NaN
  // operand propagates its (quieted) payload in both; for NaN + NaN the
  // payload follows operand order, which the scalar loop leaves to the
  // compiler.
  for (; i + 8 <= n; i += 8) {
    const __m128 lo = _mm_add_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i));
    const __m128 hi =
        _mm_add_ps(_mm_loadu_ps(dst + i + 4), _mm_loadu_ps(src + i + 4));
    _mm_storeu_ps(dst + i, lo);
    _mm_storeu_ps(dst + i + 4, hi);
  }
#endif
  for (; i < n; ++i) dst[i] += src[i];
}

void sub(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  // subps rounds each lane exactly like the scalar subss (see add).
  for (; i + 8 <= n; i += 8) {
    const __m128 lo = _mm_sub_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i));
    const __m128 hi =
        _mm_sub_ps(_mm_loadu_ps(dst + i + 4), _mm_loadu_ps(src + i + 4));
    _mm_storeu_ps(dst + i, lo);
    _mm_storeu_ps(dst + i + 4, hi);
  }
#endif
  for (; i < n; ++i) dst[i] -= src[i];
}

double max_abs(const float* p, std::size_t n) {
  float m = 0.0f;
  std::size_t i = 0;
#if defined(__SSE2__)
  // maxps returns its second operand when either is NaN, so putting the
  // accumulator second skips NaN inputs exactly like the scalar compare.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 m0 = _mm_setzero_ps();
  __m128 m1 = _mm_setzero_ps();
  for (; i + 8 <= n; i += 8) {
    m0 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(p + i), abs_mask), m0);
    m1 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(p + i + 4), abs_mask), m1);
  }
  float lanes[4];
  _mm_storeu_ps(lanes, _mm_max_ps(m0, m1));
  for (float x : lanes) m = x > m ? x : m;
#endif
  for (; i < n; ++i) {
    const float x = std::fabs(p[i]);
    if (x > m) m = x;
  }
  // float -> double is exact and monotonic, so this is the double max.
  return static_cast<double>(m);
}

namespace {

/// The plain loop max_abs_diff is defined by, continuing from max `m`.
double max_abs_diff_scalar(const float* a, const float* b, std::size_t n,
                           double m) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) != std::isnan(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace

double max_abs_diff(const float* a, const float* b, std::size_t n) {
  double m = 0.0;
  std::size_t i = 0;
#if defined(__SSE2__)
  // A float-domain filter in front of the exact double loop. Rounding is
  // monotone, so an element whose float difference g = |fl32(a - b)| is
  // below fl32(m) cannot have a double difference above m, and g == 0
  // means a == b. Only an 8-element group holding a candidate (g at or
  // above the threshold, or a NaN: cmpnlt is true when unordered) runs the
  // scalar loop, which also settles NaNs. Once the running max is near the
  // final one, few groups do; and a max does not depend on order, so the
  // result is the scalar loop's exactly.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const auto threshold = [](double max) {
    const float t = static_cast<float>(max);
    return _mm_set1_ps(t > 0.0f ? t
                                : std::numeric_limits<float>::denorm_min());
  };
  __m128 t = threshold(m);
  for (; i + 8 <= n; i += 8) {
    const __m128 g0 = _mm_and_ps(
        _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)), abs_mask);
    const __m128 g1 = _mm_and_ps(
        _mm_sub_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)),
        abs_mask);
    if (_mm_movemask_ps(_mm_or_ps(_mm_cmpnlt_ps(g0, t),
                                  _mm_cmpnlt_ps(g1, t))) != 0) {
      m = max_abs_diff_scalar(a + i, b + i, 8, m);
      t = threshold(m);
    }
  }
#endif
  return max_abs_diff_scalar(a + i, b + i, n - i, m);
}

bool any_nonzero(const float* p, std::size_t n) {
  // Value bits OR'd with the sign bit shifted out: -0.0f is zero, any NaN
  // or denormal is non-zero.
  std::size_t i = 0;
#if defined(__SSE2__)
  // One test per 16 floats (a cache line when aligned): a dense block
  // returns after its first line, an all-zero block streams at one OR
  // per vector.
  const __m128i zero = _mm_setzero_si128();
  for (; i + 16 <= n; i += 16) {
    const __m128i acc = _mm_or_si128(
        _mm_or_si128(_mm_castps_si128(_mm_loadu_ps(p + i)),
                     _mm_castps_si128(_mm_loadu_ps(p + i + 4))),
        _mm_or_si128(_mm_castps_si128(_mm_loadu_ps(p + i + 8)),
                     _mm_castps_si128(_mm_loadu_ps(p + i + 12))));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(_mm_slli_epi32(acc, 1), zero)) !=
        0xFFFF) {
      return true;
    }
  }
#endif
  std::uint32_t acc = 0;
  for (; i < n; ++i) {
    std::uint32_t u;
    std::memcpy(&u, &p[i], sizeof(u));
    acc |= u << 1;
  }
  return acc != 0;
}

}  // namespace omr::tensor::kernels
