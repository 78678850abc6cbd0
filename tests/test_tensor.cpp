#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/coo.h"
#include "tensor/dense.h"
#include "tensor/generators.h"
#include "tensor/index_codec.h"
#include "tensor/kernels.h"

namespace omr::tensor {
namespace {

TEST(DenseTensor, BasicOps) {
  DenseTensor t(4);
  t[0] = 1.0f;
  t[2] = -2.0f;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.sparsity(), 0.5);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(5.0), 1e-9);
}

TEST(DenseTensor, AddInplace) {
  DenseTensor a(std::vector<float>{1, 2, 3});
  DenseTensor b(std::vector<float>{10, 20, 30});
  a.add_inplace(b);
  EXPECT_EQ(a, DenseTensor(std::vector<float>{11, 22, 33}));
  DenseTensor c(2);
  EXPECT_THROW(a.add_inplace(c), std::invalid_argument);
}

TEST(DenseTensor, Axpy) {
  DenseTensor a(std::vector<float>{1, 2});
  DenseTensor b(std::vector<float>{4, 8});
  a.axpy_inplace(0.5f, b);
  EXPECT_EQ(a, DenseTensor(std::vector<float>{3, 6}));
}

TEST(DenseTensor, ReferenceSum) {
  std::vector<DenseTensor> ts;
  ts.emplace_back(std::vector<float>{1, 0, 2});
  ts.emplace_back(std::vector<float>{0, 3, 4});
  ts.emplace_back(std::vector<float>{5, 0, 0});
  DenseTensor sum = reference_sum(ts);
  EXPECT_EQ(sum, DenseTensor(std::vector<float>{6, 3, 6}));
}

TEST(DenseTensor, MaxAbsDiff) {
  DenseTensor a(std::vector<float>{1, 2, 3});
  DenseTensor b(std::vector<float>{1, 2.5f, 3});
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-9);
}

TEST(DenseTensor, MaxAbsDiffCountsAOneSidedNanAsUnbounded) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const DenseTensor finite(std::vector<float>{1, 2, 3});
  const DenseTensor nan_result(std::vector<float>{1, kNan, 3});
  EXPECT_EQ(max_abs_diff(nan_result, finite), kInf);
  EXPECT_EQ(max_abs_diff(finite, nan_result), kInf);
  // NaN on both sides, or the same infinity on both, is a match.
  EXPECT_EQ(max_abs_diff(nan_result, nan_result), 0.0);
  const DenseTensor inf(std::vector<float>{1, INFINITY, 3});
  EXPECT_EQ(max_abs_diff(inf, inf), 0.0);
  EXPECT_EQ(max_abs_diff(inf, finite), kInf);
  // The multi-result pass sees a NaN in any result, past any SIMD group.
  std::vector<float> wide(1027, 0.5f);
  const DenseTensor reference(wide);
  wide[1026] = kNan;
  const DenseTensor bad(wide);
  const std::vector<const DenseTensor*> results{&reference, &bad};
  EXPECT_EQ(max_abs_diff(results, reference), kInf);
}

// ---------------------------------------------------------------------------
// SIMD kernels against the plain scalar loops they replace.

float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

std::uint32_t to_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Mostly ordinary values and zeros, salted with every special the kernels
/// must treat like the scalar loop: -0.0f, denormals, +-inf, quiet NaNs
/// with payloads and a signaling NaN. `specials` = 0 leaves them out.
std::vector<float> kernel_values(std::size_t n, std::uint64_t seed,
                                 std::uint64_t specials = 16) {
  static const std::uint32_t kSpecial[] = {
      0x80000000u, 0x00000001u, 0x807fffffu, 0x00400000u, 0x7f800000u,
      0xff800000u, 0x7fc00123u, 0xffc00456u, 0x7f800001u};
  sim::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    const std::uint64_t r = rng.next_below(100);
    if (r < specials) {
      x = from_bits(kSpecial[rng.next_below(std::size(kSpecial))]);
    } else if (r < specials + 30) {
      x = 0.0f;
    } else {
      x = rng.next_float(-100.0f, 100.0f);
    }
  }
  return v;
}

const std::size_t kKernelSizes[] = {0,   1,   3,   4,   5,          7,
                                    8,   255, 256, 257, (1u << 20) + 3};

/// `got` is bit-equal to `want`, both a + b (or both a - b). When a and b
/// are both NaN the scalar loop's result payload depends on the operand
/// order the compiler picked (addss/subss return their first operand's),
/// so either quieted payload is accepted there.
::testing::AssertionResult same_sum(float got, float want, float a, float b) {
  constexpr std::uint32_t kQuiet = 0x00400000u;
  if (to_bits(got) == to_bits(want)) return ::testing::AssertionSuccess();
  if (std::isnan(a) && std::isnan(b) &&
      (to_bits(got) == (to_bits(a) | kQuiet) ||
       to_bits(got) == (to_bits(b) | kQuiet))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hex << to_bits(got) << " != " << to_bits(want);
}

double scalar_max_abs_diff(const float* a, const float* b, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) != std::isnan(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

TEST(Kernels, AddIsBitEqualToTheScalarLoop) {
  for (std::size_t n : kKernelSizes) {
    std::vector<float> dst = kernel_values(n, 11 + n);
    const std::vector<float> src = kernel_values(n, 23 + n);
    const std::vector<float> before = dst;
    std::vector<float> want = dst;
    for (std::size_t i = 0; i < n; ++i) want[i] += src[i];
    kernels::add(dst.data(), src.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_sum(dst[i], want[i], before[i], src[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, SubIsBitEqualToTheScalarLoop) {
  for (std::size_t n : kKernelSizes) {
    std::vector<float> dst = kernel_values(n, 13 + n);
    const std::vector<float> src = kernel_values(n, 29 + n);
    const std::vector<float> before = dst;
    std::vector<float> want = dst;
    for (std::size_t i = 0; i < n; ++i) want[i] -= src[i];
    kernels::sub(dst.data(), src.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_sum(dst[i], want[i], before[i], src[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, MaxAbsEqualsTheScalarLoop) {
  for (std::size_t n : kKernelSizes) {
    const std::vector<float> v = kernel_values(n, 5 + n);
    double want = 0.0;
    for (float x : v) want = std::max(want, std::fabs(static_cast<double>(x)));
    EXPECT_EQ(kernels::max_abs(v.data(), n), want) << "n=" << n;
  }
}

TEST(Kernels, MaxAbsDiffEqualsTheScalarLoop) {
  for (std::size_t n : kKernelSizes) {
    // Without NaNs: a result near the reference, as a verify sees it, and
    // an unrelated one. Salted: a one-sided NaN makes both +inf.
    for (std::uint64_t specials : {0, 16}) {
      const std::vector<float> ref = kernel_values(n, 7 + n, specials);
      std::vector<float> near = ref;
      for (std::size_t i = 0; i < n; i += 3) {
        near[i] = std::nextafter(near[i], 1000.0f);
      }
      const std::vector<float> far = kernel_values(n, 9 + n, specials);
      for (const std::vector<float>* r :
           {&ref, &std::as_const(near), &far}) {
        EXPECT_EQ(kernels::max_abs_diff(r->data(), ref.data(), n),
                  scalar_max_abs_diff(r->data(), ref.data(), n))
            << "n=" << n << " specials=" << specials;
      }
    }
  }
  // Ties: every element's float difference equals the running max, so
  // every group falls through to the exact loop.
  std::vector<float> a(1000, 1.0f), b(1000, 1.5f);
  EXPECT_EQ(kernels::max_abs_diff(a.data(), b.data(), a.size()), 0.5);
  // A float difference that rounds down onto the running max while the
  // double difference exceeds it: -2^-30 - 1 is 1 in float.
  a.assign(16, 0.0f);
  b.assign(16, 1.0f);
  a[12] = -std::ldexp(1.0f, -30);
  EXPECT_EQ(kernels::max_abs_diff(a.data(), b.data(), a.size()),
            1.0 + std::ldexp(1.0, -30));
  // Both-NaN and matching infinities are matches; NaN in the tail is not.
  a.assign(13, from_bits(0x7fc00123u));
  b.assign(13, from_bits(0xffc00456u));
  a[3] = b[3] = INFINITY;
  EXPECT_EQ(kernels::max_abs_diff(a.data(), b.data(), a.size()), 0.0);
  b[12] = 1.0f;
  EXPECT_EQ(kernels::max_abs_diff(a.data(), b.data(), a.size()),
            std::numeric_limits<double>::infinity());
}

TEST(Kernels, BitmapEqualsTheScalarScan) {
  for (std::size_t n : kKernelSizes) {
    std::vector<float> v = kernel_values(n, 31 + n);
    // Zero out runs so some blocks are all-zero (or all -0.0f), others
    // hold a single special in the middle or at the end.
    sim::Rng rng(n);
    for (std::size_t lo = 0; lo < n; lo += 40) {
      const std::uint64_t r = rng.next_below(4);
      if (r == 0) continue;
      const float fill = r == 1 ? 0.0f : -0.0f;
      for (std::size_t i = lo; i < std::min(lo + 40, n); ++i) v[i] = fill;
      if (r == 3) v[std::min(lo + 39, n - 1)] = from_bits(0x00000001u);
    }
    for (std::size_t bs : {1, 7, 16, 40, 256}) {
      const BlockBitmap bm(v, bs);
      ASSERT_EQ(bm.size(), num_blocks(n, bs));
      for (std::size_t b = 0; b < bm.size(); ++b) {
        bool want = false;
        for (std::size_t i = b * bs; i < std::min((b + 1) * bs, n); ++i) {
          want = want || v[i] != 0.0f;
        }
        ASSERT_EQ(bm.nonzero(static_cast<BlockIndex>(b)), want)
            << "n=" << n << " bs=" << bs << " block=" << b;
      }
    }
  }
}

TEST(Kernels, FusedReferencePassesEqualTheScalarLoops) {
  for (std::size_t n : kKernelSizes) {
    std::vector<DenseTensor> ts;
    for (std::uint64_t w = 0; w < 5; ++w) {
      ts.emplace_back(kernel_values(n, 100 * w + n));
    }
    std::vector<const DenseTensor*> refs;
    for (const auto& t : ts) refs.push_back(&t);
    double amax = -1.0;
    const DenseTensor sum = reference_sum(refs, &amax);
    double want_amax = 0.0;
    for (const auto& t : ts) {
      for (float x : t.values()) {
        want_amax = std::max(want_amax, std::fabs(static_cast<double>(x)));
      }
    }
    ASSERT_EQ(sum.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      float want = 0.0f;
      bool nan_plus_nan = false;  // payload then order-dependent (same_sum)
      for (const auto& t : ts) {
        nan_plus_nan = nan_plus_nan || (std::isnan(want) && std::isnan(t[i]));
        want += t[i];
      }
      if (nan_plus_nan) {
        ASSERT_TRUE(std::isnan(sum[i])) << "n=" << n << " i=" << i;
      } else {
        ASSERT_EQ(to_bits(sum[i]), to_bits(want)) << "n=" << n << " i=" << i;
      }
    }
    EXPECT_EQ(amax, want_amax) << "n=" << n;
    double want_err = 0.0;
    for (const auto& t : ts) {
      want_err = std::max(
          want_err,
          scalar_max_abs_diff(t.values().data(), sum.values().data(), n));
    }
    EXPECT_EQ(max_abs_diff(refs, sum), want_err) << "n=" << n;
  }
}

TEST(Coo, RoundTrip) {
  DenseTensor t(std::vector<float>{0, 1, 0, 0, -2, 0, 3});
  CooTensor c = dense_to_coo(t);
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_EQ(c.keys, (std::vector<std::int32_t>{1, 4, 6}));
  EXPECT_EQ(c.wire_bytes(), 24u);
  DenseTensor back = coo_to_dense(c);
  EXPECT_EQ(back, t);
}

TEST(Coo, MergeAdd) {
  CooTensor a{8, {1, 3, 5}, {1.f, 1.f, 1.f}};
  CooTensor b{8, {0, 3, 7}, {2.f, 2.f, 2.f}};
  CooTensor s = coo_add(a, b);
  EXPECT_EQ(s.keys, (std::vector<std::int32_t>{0, 1, 3, 5, 7}));
  EXPECT_FLOAT_EQ(s.values[2], 3.0f);
  CooTensor mismatch{4, {}, {}};
  EXPECT_THROW(coo_add(a, mismatch), std::invalid_argument);
}

// The scalar loops dense_to_coo and coo_add are defined by: the SSE2 scan
// and the pointer merge must return exactly what these do.
CooTensor scalar_dense_to_coo(const std::vector<float>& v) {
  CooTensor out;
  out.dim = v.size();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != 0.0f) {
      out.keys.push_back(static_cast<std::int32_t>(i));
      out.values.push_back(v[i]);
    }
  }
  return out;
}

CooTensor scalar_coo_add(const CooTensor& a, const CooTensor& b) {
  CooTensor out;
  out.dim = a.dim;
  std::size_t i = 0, j = 0;
  while (i < a.nnz() && j < b.nnz()) {
    if (a.keys[i] < b.keys[j]) {
      out.keys.push_back(a.keys[i]);
      out.values.push_back(a.values[i++]);
    } else if (a.keys[i] > b.keys[j]) {
      out.keys.push_back(b.keys[j]);
      out.values.push_back(b.values[j++]);
    } else {
      out.keys.push_back(a.keys[i]);
      out.values.push_back(a.values[i++] + b.values[j++]);
    }
  }
  for (; i < a.nnz(); ++i) {
    out.keys.push_back(a.keys[i]);
    out.values.push_back(a.values[i]);
  }
  for (; j < b.nnz(); ++j) {
    out.keys.push_back(b.keys[j]);
    out.values.push_back(b.values[j]);
  }
  return out;
}

/// kernel_values with `zero_pct` percent of the elements set to +0.0f
/// (the specials still include -0.0f, denormals and NaNs).
std::vector<float> coo_values(std::size_t n, std::uint64_t seed,
                              std::uint64_t zero_pct) {
  std::vector<float> v = kernel_values(n, seed);
  sim::Rng rng(seed ^ 0x5bd1e995u);
  for (float& x : v) {
    if (rng.next_below(100) < zero_pct) x = 0.0f;
  }
  return v;
}

TEST(Coo, DenseToCooMatchesTheScalarLoop) {
  for (std::uint64_t zero_pct : {0u, 60u, 97u, 100u}) {
    for (std::size_t n = 0; n <= 4099; ++n) {
      const std::vector<float> v = coo_values(n, 31 * n + zero_pct, zero_pct);
      const CooTensor want = scalar_dense_to_coo(v);
      const CooTensor got = dense_to_coo(DenseTensor(v));
      ASSERT_EQ(got.dim, n);
      ASSERT_EQ(got.keys, want.keys) << "n=" << n << " zero%=" << zero_pct;
      for (std::size_t k = 0; k < want.nnz(); ++k) {
        ASSERT_EQ(to_bits(got.values[k]), to_bits(want.values[k]))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Coo, DenseToCooDropsBothZerosAndKeepsNanAndDenormals) {
  const std::vector<float> v = {
      -0.0f, 0.0f, from_bits(0x00000001u), std::nanf(""), -0.0f, 1.0f,
      0.0f,  -0.0f, 0.0f, from_bits(0x807fffffu)};
  const CooTensor c = dense_to_coo(DenseTensor(v));
  EXPECT_EQ(c.keys, (std::vector<std::int32_t>{2, 3, 5, 9}));
}

TEST(Coo, CooAddMatchesTheScalarMerge) {
  // Key sets per case: empty, disjoint, identical and random overlaps,
  // with values that include -0.0f, denormals, infinities and NaNs.
  for (std::size_t n = 0; n <= 4099; n += (n < 64 ? 1 : 13)) {
    const std::vector<float> va = coo_values(n, 7 * n + 1, 50);
    const std::vector<float> vb = coo_values(n, 7 * n + 2, 50);
    CooTensor a = scalar_dense_to_coo(va);
    CooTensor b = scalar_dense_to_coo(vb);
    // Every key, zeros included (-0.0f + -0.0f must stay -0.0f), and its
    // odd/even halves.
    CooTensor all_a{n, {}, {}}, all_b{n, {}, {}};
    CooTensor odd{n, {}, {}}, even{n, {}, {}};
    for (std::size_t k = 0; k < n; ++k) {
      const auto key = static_cast<std::int32_t>(k);
      all_a.keys.push_back(key);
      all_a.values.push_back(va[k]);
      all_b.keys.push_back(key);
      all_b.values.push_back(vb[k]);
      CooTensor& side = k % 2 != 0 ? odd : even;
      side.keys.push_back(key);
      side.values.push_back(va[k]);
    }
    const CooTensor empty{n, {}, {}};
    const std::pair<const CooTensor*, const CooTensor*> cases[] = {
        {&a, &b},         {&b, &a},        {&a, &a},
        {&all_a, &all_b}, {&all_b, &odd},  {&odd, &even},
        {&even, &odd},    {&a, &empty},    {&empty, &b},
        {&empty, &empty}};
    for (const auto& [x, y] : cases) {
      const CooTensor want = scalar_coo_add(*x, *y);
      const CooTensor got = coo_add(*x, *y);
      ASSERT_EQ(got.dim, n);
      ASSERT_EQ(got.keys, want.keys) << "n=" << n;
      ASSERT_EQ(got.values.size(), want.values.size());
      for (std::size_t k = 0; k < want.nnz(); ++k) {
        // Operands for the NaN + NaN payload rule of same_sum: a key on
        // one side only compares bit for bit (its other operand is 0).
        const auto find = [&](const CooTensor& t) {
          const auto it = std::lower_bound(t.keys.begin(), t.keys.end(),
                                           want.keys[k]);
          return it != t.keys.end() && *it == want.keys[k]
                     ? t.values[static_cast<std::size_t>(it - t.keys.begin())]
                     : 0.0f;
        };
        ASSERT_TRUE(same_sum(got.values[k], want.values[k], find(*x),
                             find(*y)))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Coo, ShardAccumulatorSumsInArrivalOrder) {
  CooShardAccumulator acc(100, 200);
  const std::int32_t k1[] = {100, 150, 199};
  const float v1[] = {1.0f, 2.5f, -0.0f};
  const std::int32_t k2[] = {150, 120};
  const float v2[] = {-2.5f, 4.0f};
  acc.add(k1, v1, 3);
  acc.add(k2, v2, 2);
  EXPECT_EQ(acc.nnz(), 4u);
  // A key whose contributions cancel stays in the result; a lone -0.0f
  // comes back as 0.0f + -0.0f = +0.0f, as a zero-initialised map gives.
  std::vector<std::int32_t> keys;
  std::vector<float> values;
  acc.emit(keys, values);
  EXPECT_EQ(keys, (std::vector<std::int32_t>{100, 120, 150, 199}));
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], 1.0f);
  EXPECT_EQ(values[1], 4.0f);
  EXPECT_EQ(values[2], 0.0f);
  EXPECT_EQ(to_bits(values[3]), 0u);
}

TEST(Coo, ShardAccumulatorRejectsKeysOutsideItsShard) {
  CooShardAccumulator acc(100, 200);
  const float v[] = {1.0f};
  for (std::int32_t key : {99, 200, -1, 1 << 30}) {
    const std::int32_t k[] = {key};
    EXPECT_THROW(acc.add(k, v, 1), std::logic_error) << key;
  }
  EXPECT_EQ(acc.nnz(), 0u);
  std::vector<std::int32_t> keys = {7};
  std::vector<float> values = {7.0f};
  acc.emit(keys, values);
  EXPECT_TRUE(keys.empty());
  EXPECT_TRUE(values.empty());
  CooShardAccumulator none(5, 5);
  const std::int32_t k[] = {5};
  EXPECT_THROW(none.add(k, v, 1), std::logic_error);
}

TEST(Coo, ConversionCostScalesWithSize) {
  EXPECT_GT(conversion_cost(1 << 20, 1 << 10), conversion_cost(1 << 10, 1 << 4));
  EXPECT_GT(conversion_cost(1 << 20, 1 << 19), conversion_cost(1 << 20, 0));
}

TEST(Blocks, NumBlocks) {
  EXPECT_EQ(num_blocks(1024, 256), 4u);
  EXPECT_EQ(num_blocks(1025, 256), 5u);
  EXPECT_EQ(num_blocks(0, 256), 0u);
  EXPECT_THROW(num_blocks(10, 0), std::invalid_argument);
}

TEST(Blocks, BitmapMarksNonzeroBlocks) {
  DenseTensor t(1024);
  t[300] = 1.0f;  // block 1
  t[900] = 2.0f;  // block 3
  BlockBitmap bm(t.span(), 256);
  ASSERT_EQ(bm.size(), 4u);
  EXPECT_FALSE(bm.nonzero(0));
  EXPECT_TRUE(bm.nonzero(1));
  EXPECT_FALSE(bm.nonzero(2));
  EXPECT_TRUE(bm.nonzero(3));
  EXPECT_EQ(bm.nonzero_count(), 2u);
  EXPECT_DOUBLE_EQ(bm.block_sparsity(), 0.5);
}

TEST(Blocks, NextNonzero) {
  DenseTensor t(1024);
  t[300] = 1.0f;
  t[900] = 2.0f;
  BlockBitmap bm(t.span(), 256);
  EXPECT_EQ(bm.next_nonzero(0), 1);
  EXPECT_EQ(bm.next_nonzero(1), 1);
  EXPECT_EQ(bm.next_nonzero(2), 3);
  EXPECT_EQ(bm.next_nonzero(4), kNoBlock);
}

TEST(Blocks, NextNonzeroInColumn) {
  // 8 blocks, stride 4: columns {0,4}, {1,5}, {2,6}, {3,7}.
  DenseTensor t(8 * 16);
  t[4 * 16] = 1.0f;  // block 4, column 0
  t[5 * 16] = 1.0f;  // block 5, column 1
  BlockBitmap bm(t.span(), 16);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 0, 4), 4);
  EXPECT_EQ(bm.next_nonzero_in_column(5, 0, 4), kNoBlock);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 1, 4), 5);
  EXPECT_EQ(bm.next_nonzero_in_column(0, 2, 4), kNoBlock);
}

TEST(Blocks, PartialLastBlock) {
  DenseTensor t(300);  // blocks: [0,256), [256,300)
  t[299] = 5.0f;
  BlockBitmap bm(t.span(), 256);
  ASSERT_EQ(bm.size(), 2u);
  EXPECT_FALSE(bm.nonzero(0));
  EXPECT_TRUE(bm.nonzero(1));
}

TEST(Blocks, DensityWithinBlocks) {
  DenseTensor t(512);
  for (int i = 0; i < 128; ++i) t[static_cast<size_t>(i)] = 1.0f;  // half of block 0
  EXPECT_DOUBLE_EQ(density_within_blocks(t, 256), 0.5);
  EXPECT_DOUBLE_EQ(block_sparsity(t, 256), 0.5);
  DenseTensor z(512);
  EXPECT_DOUBLE_EQ(density_within_blocks(z, 256), 0.0);
}


TEST(IndexCodec, CrossoverAtDimOver32) {
  // Raw keys cost 4*nnz; a bitmask costs dim/8. Equal at nnz = dim/32.
  const std::size_t dim = 32000;
  EXPECT_EQ(choose_index_encoding(999, dim), IndexEncoding::kRawKeys);
  EXPECT_EQ(choose_index_encoding(1001, dim), IndexEncoding::kBitmask);
}

TEST(IndexCodec, ByteCounts) {
  EXPECT_EQ(index_bytes(IndexEncoding::kRawKeys, 10, 1000), 40u);
  EXPECT_EQ(index_bytes(IndexEncoding::kBitmask, 10, 1000), 125u);
  // Compressed wire bytes never exceed the raw COO encoding.
  for (std::size_t nnz : {0u, 5u, 100u, 500u, 1000u}) {
    EXPECT_LE(coo_wire_bytes_compressed(nnz, 1000), nnz * 8 + 125);
    EXPECT_LE(coo_wire_bytes_compressed(nnz, 1000), nnz * 8 > 0 ? nnz * 8 : 125u);
  }
}

TEST(IndexCodec, DenseTensorPrefersBitmask) {
  const std::size_t dim = 1 << 20;
  const std::size_t nnz = dim / 2;
  EXPECT_EQ(choose_index_encoding(nnz, dim), IndexEncoding::kBitmask);
  EXPECT_EQ(coo_wire_bytes_compressed(nnz, dim), nnz * 4 + dim / 8);
}

TEST(Generators, BlockSparseHitsTarget) {
  sim::Rng rng(1);
  DenseTensor t = make_block_sparse(256 * 1000, 256, 0.9, rng);
  EXPECT_NEAR(block_sparsity(t, 256), 0.9, 0.01);
}

TEST(Generators, BlockSparseExtremes) {
  sim::Rng rng(2);
  DenseTensor dense = make_block_sparse(256 * 100, 256, 0.0, rng);
  EXPECT_DOUBLE_EQ(block_sparsity(dense, 256), 0.0);
  DenseTensor empty = make_block_sparse(256 * 100, 256, 1.0, rng);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_THROW(make_block_sparse(100, 10, 1.5, rng), std::invalid_argument);
}

TEST(Generators, OverlapAll) {
  sim::Rng rng(3);
  auto ts = make_multi_worker(4, 256 * 100, 256, 0.8, OverlapMode::kAll, rng);
  ASSERT_EQ(ts.size(), 4u);
  BlockBitmap ref(ts[0].span(), 256);
  for (const auto& t : ts) {
    BlockBitmap bm(t.span(), 256);
    EXPECT_EQ(bm.bits(), ref.bits());
  }
}

TEST(Generators, OverlapNoneIsDisjoint) {
  sim::Rng rng(4);
  auto ts = make_multi_worker(4, 256 * 100, 256, 0.8, OverlapMode::kNone, rng);
  std::vector<int> owners(100, 0);
  for (const auto& t : ts) {
    BlockBitmap bm(t.span(), 256);
    for (std::size_t b = 0; b < bm.size(); ++b) {
      if (bm.nonzero(static_cast<BlockIndex>(b))) ++owners[b];
    }
  }
  for (int o : owners) EXPECT_LE(o, 1);
}

TEST(Generators, OverlapNoneThrowsWhenInfeasible) {
  sim::Rng rng(5);
  EXPECT_THROW(
      make_multi_worker(8, 256 * 10, 256, 0.0, OverlapMode::kNone, rng),
      std::invalid_argument);
}

TEST(Generators, ElementSparseApproximatesTarget) {
  sim::Rng rng(6);
  DenseTensor t = make_element_sparse(100000, 0.3, rng);
  EXPECT_NEAR(t.sparsity(), 0.3, 0.01);
  // i.i.d. zeros at 30%: every 256-block is almost surely non-zero.
  EXPECT_DOUBLE_EQ(block_sparsity(t, 256), 0.0);
}

TEST(Generators, EmbeddingGradientIsRowClustered) {
  sim::Rng rng(7);
  const std::size_t n = 1 << 20;
  DenseTensor t = make_embedding_gradient(n, n, 1024, 50, 0.0, rng);
  // 50 rows of 1024 non-zeros.
  EXPECT_EQ(t.nnz(), 50u * 1024u);
  // Those rows are aligned: they cover exactly 50 * 4 blocks of 256.
  BlockBitmap bm(t.span(), 256);
  EXPECT_EQ(bm.nonzero_count(), 200u);
}

TEST(Generators, EmbeddingGradientDenseTail) {
  sim::Rng rng(8);
  const std::size_t n = 100000;
  DenseTensor t = make_embedding_gradient(n, 0, 64, 0, 1.0, rng);
  EXPECT_EQ(t.nnz(), n);  // dense tail fully dense
}

TEST(Generators, MultiWorkerEmbeddingHotRowsOverlap) {
  sim::Rng rng(9);
  const std::size_t n = 1 << 18;
  auto ts = make_multi_worker_embedding(8, n, n, 256, 64, 8, 1.0, 0.0, rng);
  // hot_fraction=1 with 8 hot rows and 64 requested rows per worker: each
  // worker activates only hot rows (at most 8 distinct), so every non-zero
  // block is shared by all workers.
  std::set<std::vector<std::uint8_t>> distinct;
  for (const auto& t : ts) distinct.insert(BlockBitmap(t.span(), 256).bits());
  EXPECT_EQ(distinct.size(), 1u);
}

}  // namespace
}  // namespace omr::tensor
