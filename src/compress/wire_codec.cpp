#include "compress/wire_codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::compress {

namespace {

/// float -> IEEE binary16 bits, round-to-nearest-even. Out-of-range
/// magnitudes clamp to the largest finite half (65504); the codecs only
/// pass scales/zero points derived from finite inputs.
std::uint16_t f32_to_f16(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {
    // Inf/NaN: clamp Inf to max finite, keep NaN as a quiet half NaN.
    return abs > 0x7f800000u ? static_cast<std::uint16_t>(sign | 0x7e00u)
                             : static_cast<std::uint16_t>(sign | 0x7bffu);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to >= 65520: clamp to 65504 (no half infinities on the wire).
    return static_cast<std::uint16_t>(sign | 0x7bffu);
  }
  if (abs < 0x38800000u) {
    // Half-subnormal range (< 2^-14): quantize to multiples of 2^-24. The
    // value is mant * 2^(e - 150) with e = abs >> 23, so its count of
    // 2^-24 steps is mant >> (126 - e). A round-up to 0x400 carries into
    // the smallest half normal, 2^-14, which is the correct encoding.
    if (abs < 0x33000000u) return sign;  // < 2^-25 rounds to zero
    const int shift = 126 - static_cast<int>(abs >> 23);  // in [14, 24]
    std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    const std::uint32_t lsb = 1u << shift;
    const std::uint32_t rest = mant & (lsb - 1);
    mant >>= shift;
    if (rest > (lsb >> 1) || (rest == (lsb >> 1) && (mant & 1u))) ++mant;
    return static_cast<std::uint16_t>(sign | mant);
  }
  // Normal range: drop 13 mantissa bits with RNE, rebias exponent.
  const std::uint32_t lsb = 1u << 13;
  const std::uint32_t rest = abs & (lsb - 1);
  std::uint32_t half = ((abs >> 23) - 112u) << 10 | ((abs >> 13) & 0x3ffu);
  if (rest > (lsb >> 1) || (rest == (lsb >> 1) && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t abs = h & 0x7fffu;
  std::uint32_t bits;
  if (abs >= 0x7c00u) {
    bits = sign | 0x7f800000u | ((abs & 0x3ffu) << 13);  // inf/nan
  } else if (abs >= 0x0400u) {
    bits = sign | ((abs + (112u << 10)) << 13);  // normal
  } else if (abs != 0) {
    // Subnormal half: renormalize.
    int shift = 0;
    while ((abs & 0x0400u) == 0) {
      abs <<= 1;
      ++shift;
    }
    bits = sign | ((113u - static_cast<std::uint32_t>(shift)) << 23) |
           ((abs & 0x3ffu) << 13);
  } else {
    bits = sign;
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Quantize a scale-normalized value to e4m3 (3 mantissa bits, max normal
/// 448, subnormal step 2^-9), round-to-nearest-even via the default FP
/// environment. Input is finite and already clamped by the caller's scale
/// so |v| <= ~448 up to fp16 scale rounding slack.
float quantize_e4m3(float v) {
  if (v == 0.0f) return 0.0f;
  const float a = std::fabs(v);
  if (a >= 448.0f) return std::copysign(448.0f, v);
  int exp = 0;
  std::frexp(a, &exp);  // a = m * 2^exp, m in [0.5, 1)
  // Normals span binades 2^-6..2^8 (frexp exp -5..9); below that the
  // subnormal ladder has a fixed 2^-9 step.
  if (exp < -5) {
    const float q = std::nearbyintf(a * 512.0f) / 512.0f;
    return std::copysign(q, v);
  }
  const float step = std::ldexp(1.0f, exp - 4);  // 2^(exp-1) / 2^3
  float q = std::nearbyintf(a / step) * step;
  if (q > 448.0f) q = 448.0f;
  return std::copysign(q, v);
}

std::size_t group_count(std::size_t n) {
  return (n + kCodecGroup - 1) / kCodecGroup;
}

std::size_t meta_bytes_per_group(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return 0;
    case WireCodec::kFp8: return 2;  // fp16 scale
    default: return 4;               // fp16 scale + fp16 zero
  }
}

}  // namespace

const char* codec_name(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return "none";
    case WireCodec::kFp8: return "fp8";
    case WireCodec::kQ8: return "q8";
    case WireCodec::kQ6: return "q6";
    case WireCodec::kQ4: return "q4";
  }
  return "none";
}

WireCodec codec_from_name(const std::string& name) {
  if (name == "none" || name.empty()) return WireCodec::kNone;
  if (name == "fp8") return WireCodec::kFp8;
  if (name == "q8") return WireCodec::kQ8;
  if (name == "q6") return WireCodec::kQ6;
  if (name == "q4") return WireCodec::kQ4;
  throw std::invalid_argument("unknown wire codec '" + name +
                              "'; known: none fp8 q8 q6 q4");
}

std::vector<std::string> codec_names() {
  return {"none", "fp8", "q8", "q6", "q4"};
}

std::size_t codec_code_bits(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return 0;
    case WireCodec::kFp8: return 8;
    case WireCodec::kQ8: return 8;
    case WireCodec::kQ6: return 6;
    case WireCodec::kQ4: return 4;
  }
  return 0;
}

double codec_bits_per_element(WireCodec c) {
  if (c == WireCodec::kNone) return 32.0;
  return static_cast<double>(codec_code_bits(c)) +
         8.0 * static_cast<double>(meta_bytes_per_group(c)) /
             static_cast<double>(kCodecGroup);
}

std::size_t codec_payload_bytes(WireCodec c, std::size_t n) {
  if (c == WireCodec::kNone) return n * 4;
  const std::size_t bits = codec_code_bits(c);
  std::size_t bytes = 0;
  const std::size_t full = n / kCodecGroup;
  bytes += full * ((kCodecGroup * bits) / 8 + meta_bytes_per_group(c));
  const std::size_t tail = n % kCodecGroup;
  if (tail > 0) bytes += (tail * bits + 7) / 8 + meta_bytes_per_group(c);
  return bytes;
}

double codec_rel_error_bound(WireCodec c) {
  // Asymmetric codecs: half a quantization step over the group's range
  // (<= 2*amax), inflated ~40% for the fp16 rounding of scale/zero and
  // the resulting clamp at the range ends.
  switch (c) {
    case WireCodec::kNone: return 0.0;
    case WireCodec::kFp8: return 0.04;          // 16/448 + fp16 scale slack
    case WireCodec::kQ8: return 1.4 / 255.0 + 1e-3;
    case WireCodec::kQ6: return 1.4 / 63.0 + 1e-3;
    case WireCodec::kQ4: return 1.4 / 15.0 + 1e-3;
  }
  return 0.0;
}

double codec_verify_slack(WireCodec c, double input_amax,
                          std::size_t n_workers) {
  // Each worker contributes one quantization error bounded by its group
  // amax <= input_amax; the emitted result is requantized once at a
  // magnitude up to n_workers * input_amax. Factor 2 margin on top.
  const double rel = codec_rel_error_bound(c);
  const double nw = static_cast<double>(n_workers);
  return 2.0 * rel * input_amax * (nw + nw + 1.0);
}

float fp16_round(float x) { return f16_to_f32(f32_to_f16(x)); }

namespace {

/// Shapes `out` for `n` elements of codec `c`. Vectors only shrink or grow,
/// so a recycled block keeps its capacity and every slot is then written.
void shape_block(std::size_t n, WireCodec c, EncodedBlock& out) {
  out.codec = c;
  out.n = static_cast<std::uint32_t>(n);
  const bool empty = c == WireCodec::kNone || n == 0;
  const bool fp8 = c == WireCodec::kFp8;
  out.scale.resize(empty ? 0 : group_count(n));
  out.zero.resize(empty || fp8 ? 0 : group_count(n));
  out.q.resize(empty || fp8 ? 0 : n);
  out.fp.resize(empty || !fp8 ? 0 : n);
}

void encode_fp8(const float* x, std::size_t n, EncodedBlock& out,
                float* reps) {
  for (std::size_t g = 0; g < out.scale.size(); ++g) {
    const std::size_t lo = g * kCodecGroup;
    const std::size_t hi = std::min(lo + kCodecGroup, n);
    float amax = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      amax = std::max(amax, std::fabs(x[i]));
    }
    const float scale = amax > 0.0f ? fp16_round(amax / 448.0f) : 0.0f;
    out.scale[g] = scale;
    for (std::size_t i = lo; i < hi; ++i) {
      out.fp[i] = scale > 0.0f ? quantize_e4m3(x[i] / scale) : 0.0f;
      if (reps != nullptr) reps[i] = out.fp[i] * scale;
    }
  }
}

std::int32_t codec_levels(WireCodec c) {
  return static_cast<std::int32_t>((1u << codec_code_bits(c)) - 1u);
}

/// Group (min, max) as the sequential std::min/std::max fold seeded with
/// x[lo]: a NaN there sticks, a later NaN is skipped, and of equal values
/// (+0 and -0) the first one wins.
void minmax_scalar(const float* x, std::size_t lo, std::size_t hi, float& mn,
                   float& mx) {
  mn = x[lo];
  mx = x[lo];
  for (std::size_t i = lo + 1; i < hi; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
}

/// Code of one value: nearbyintf((v - zero) / scale) clamped to
/// [0, levels]. A quotient that is NaN or at least 2^31 has no int32 value
/// and codes as 0, which is what the hardware conversion (cvttss2si or
/// cvtps2dq: INT_MIN) followed by the clamp gives.
std::int32_t quantize_scalar(float v, float zero, float scale,
                             std::int32_t levels) {
  const float r = std::nearbyintf((v - zero) / scale);
  if (!(r > 0.0f) || r >= 2147483648.0f) return 0;
  const auto q = static_cast<std::int32_t>(r);
  return q < levels ? q : levels;
}

/// Codes and representatives of x[lo..hi) on one group's grid; reps may
/// alias x (each element is read before its representative is written).
void quantize_group_scalar(const float* x, std::size_t lo, std::size_t hi,
                           float zero, float scale, std::int32_t levels,
                           std::int32_t* q, float* reps) {
  for (std::size_t i = lo; i < hi; ++i) {
    q[i] = scale > 0.0f ? quantize_scalar(x[i], zero, scale, levels) : 0;
    if (reps != nullptr) reps[i] = scale * static_cast<float>(q[i]) + zero;
  }
}

/// (zero, scale) of a group from its min and max, both fp16-exact.
void group_grid(float mn, float mx, std::int32_t levels, float& zero,
                float& scale) {
  zero = fp16_round(mn);
  scale = fp16_round((mx - zero) / static_cast<float>(levels));
}

#if defined(__SSE2__)
/// minmax_scalar over one full group. minps/maxps return their second
/// operand when either is NaN or both are equal, so with the accumulator
/// second each lane folds exactly like std::min/std::max, and seeding
/// every lane with x[lo] makes a leading NaN stick in all four. Lanes then
/// combine in another order, which only the sign of a zero result can
/// tell: that case reruns the scalar fold.
void minmax_group_sse2(const float* x, float& mn, float& mx) {
  __m128 vmn = _mm_set1_ps(x[0]);
  __m128 vmx = vmn;
  for (std::size_t i = 0; i < kCodecGroup; i += 4) {
    const __m128 v = _mm_loadu_ps(x + i);
    vmn = _mm_min_ps(v, vmn);
    vmx = _mm_max_ps(v, vmx);
  }
  vmn = _mm_min_ps(vmn, _mm_movehl_ps(vmn, vmn));
  vmn = _mm_min_ps(vmn, _mm_shuffle_ps(vmn, vmn, 1));
  vmx = _mm_max_ps(vmx, _mm_movehl_ps(vmx, vmx));
  vmx = _mm_max_ps(vmx, _mm_shuffle_ps(vmx, vmx, 1));
  mn = _mm_cvtss_f32(vmn);
  mx = _mm_cvtss_f32(vmx);
  if (mn == 0.0f || mx == 0.0f) minmax_scalar(x, 0, kCodecGroup, mn, mx);
}

/// quantize_group_scalar over one full group with scale > 0. subps/divps
/// round each lane like subss/divss; cvtps2dq rounds to nearest-even under
/// the default MXCSR, as nearbyintf does, and turns NaN and out-of-range
/// quotients into INT_MIN, which the clamp sends to 0. cvtdq2ps, mulps and
/// addps then form scale * q + zero exactly as decode_block does.
void quantize_group_sse2(const float* x, float zero, float scale,
                         std::int32_t levels, std::int32_t* q, float* reps) {
  const __m128 vzero = _mm_set1_ps(zero);
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128i vlevels = _mm_set1_epi32(levels);
  const __m128i vnull = _mm_setzero_si128();
  for (std::size_t i = 0; i < kCodecGroup; i += 4) {
    __m128i c = _mm_cvtps_epi32(
        _mm_div_ps(_mm_sub_ps(_mm_loadu_ps(x + i), vzero), vscale));
    c = _mm_and_si128(c, _mm_cmpgt_epi32(c, vnull));  // max(c, 0)
    const __m128i over = _mm_cmpgt_epi32(c, vlevels);
    c = _mm_or_si128(_mm_andnot_si128(over, c), _mm_and_si128(over, vlevels));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), c);
    if (reps != nullptr) {
      _mm_storeu_ps(reps + i, _mm_add_ps(_mm_mul_ps(vscale, _mm_cvtepi32_ps(c)),
                                         vzero));
    }
  }
}
#endif

/// encode_block with the SSE2 group kernels on (`simd`) or off.
void encode(const float* x, std::size_t n, WireCodec c, EncodedBlock& out,
            float* reps, bool simd) {
  shape_block(n, c, out);
  if (c == WireCodec::kNone || n == 0) return;
  if (c == WireCodec::kFp8) {
    encode_fp8(x, n, out, reps);
    return;
  }
  const std::int32_t levels = codec_levels(c);
  for (std::size_t g = 0; g < out.scale.size(); ++g) {
    const std::size_t lo = g * kCodecGroup;
    const std::size_t hi = std::min(lo + kCodecGroup, n);
    float& zero = out.zero[g];
    float& scale = out.scale[g];
#if defined(__SSE2__)
    if (simd && hi - lo == kCodecGroup) {
      float mn, mx;
      minmax_group_sse2(x + lo, mn, mx);
      group_grid(mn, mx, levels, zero, scale);
      if (scale > 0.0f) {
        quantize_group_sse2(x + lo, zero, scale, levels, out.q.data() + lo,
                            reps != nullptr ? reps + lo : nullptr);
      } else {
        // Constant group, or a NaN/negative scale: every code is 0.
        quantize_group_scalar(x, lo, hi, zero, scale, levels, out.q.data(),
                              reps);
      }
      continue;
    }
#endif
    (void)simd;
    float mn, mx;
    minmax_scalar(x, lo, hi, mn, mx);
    group_grid(mn, mx, levels, zero, scale);
    quantize_group_scalar(x, lo, hi, zero, scale, levels, out.q.data(), reps);
  }
}

}  // namespace

void encode_block(const float* x, std::size_t n, WireCodec c,
                  EncodedBlock& out, float* reps) {
  encode(x, n, c, out, reps, /*simd=*/true);
}

void encode_block_reference(const float* x, std::size_t n, WireCodec c,
                            EncodedBlock& out, float* reps) {
  encode(x, n, c, out, reps, /*simd=*/false);
}

void decode_block(const EncodedBlock& e, float* out) {
  const std::size_t n = e.n;
  if (e.codec == WireCodec::kNone || n == 0) return;
  if (e.codec == WireCodec::kFp8) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = e.fp[i] * e.scale[i / kCodecGroup];
    }
    return;
  }
  std::size_t i = 0;
#if defined(__SSE2__)
  // cvtdq2ps, mulps and addps round each lane like the scalar expression.
  for (; i + kCodecGroup <= n; i += kCodecGroup) {
    const __m128 vscale = _mm_set1_ps(e.scale[i / kCodecGroup]);
    const __m128 vzero = _mm_set1_ps(e.zero[i / kCodecGroup]);
    for (std::size_t k = i; k < i + kCodecGroup; k += 4) {
      const __m128 q = _mm_cvtepi32_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(e.q.data() + k)));
      _mm_storeu_ps(out + k, _mm_add_ps(_mm_mul_ps(vscale, q), vzero));
    }
  }
#endif
  for (; i < n; ++i) {
    const std::size_t g = i / kCodecGroup;
    out[i] = e.scale[g] * static_cast<float>(e.q[i]) + e.zero[g];
  }
}

void codec_roundtrip(float* x, std::size_t n, WireCodec c) {
  if (c == WireCodec::kNone || n == 0) return;
  EncodedBlock e;
  encode_block(x, n, c, e, x);
}

std::shared_ptr<EncodedBlock> EncodedBlockPool::acquire() {
  if (free_.empty()) return std::make_shared<EncodedBlock>();
  std::shared_ptr<EncodedBlock> e = std::move(free_.back());
  free_.pop_back();
  return e;
}

void EncodedBlockPool::release(std::shared_ptr<const EncodedBlock>& e) {
  if (e != nullptr && e.use_count() == 1) {
    free_.push_back(std::const_pointer_cast<EncodedBlock>(std::move(e)));
  }
  e.reset();
}

void QuantAccumulator::reset() {
  active = false;
  k = 0;
  codec = WireCodec::kNone;
  n = 0;
  scale.clear();
  zero.clear();
  q.clear();
}

bool QuantAccumulator::compatible(const EncodedBlock& e) const {
  if (e.codec != codec || e.n != n) return false;
  if (e.scale.size() != scale.size() || e.zero.size() != zero.size()) {
    return false;
  }
  // Scales/zeros are fp16-rounded: bitwise float equality is the exactness
  // criterion (identical groups quantized on identical grids).
  for (std::size_t g = 0; g < scale.size(); ++g) {
    if (e.scale[g] != scale[g] || e.zero[g] != zero[g]) return false;
  }
  return true;
}

bool QuantAccumulator::fold(const EncodedBlock* e) {
  if (k == 0 && !active) {
    // Fresh accumulator: prime from the first contribution if it is an
    // integer codec; fp8 / raw contributions leave it inactive.
    if (e == nullptr || e->codec == WireCodec::kNone ||
        e->codec == WireCodec::kFp8) {
      k = 1;  // mark "saw a contribution" so later ones don't prime
      return false;
    }
    codec = e->codec;
    n = e->n;
    scale = e->scale;
    zero = e->zero;
    q.assign(e->q.begin(), e->q.end());
    k = 1;
    active = true;
    return true;
  }
  if (!active) {
    ++k;
    return false;
  }
  if (e == nullptr || !compatible(*e)) {
    active = false;
    ++k;
    return false;
  }
  for (std::size_t i = 0; i < q.size(); ++i) q[i] += e->q[i];
  ++k;
  return true;
}

void QuantAccumulator::decode(float* out, std::size_t count) const {
  assert(active);
  const std::size_t m = std::min<std::size_t>(count, n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = i / kCodecGroup;
    // Exact in double: fp16 scale/zero have 11-bit significands, q sums
    // and k stay far below 2^40, so both products are representable; the
    // one double add then one float rounding is the only inexact step.
    out[i] = static_cast<float>(
        static_cast<double>(scale[g]) * static_cast<double>(q[i]) +
        static_cast<double>(k) * static_cast<double>(zero[g]));
  }
}

}  // namespace omr::compress
