#pragma once

#include <cstddef>

namespace omr::tensor::kernels {

/// Element-wise float kernels behind every dense pass of the simulator: the
/// reference reduction, the aggregator's sum fold, the result check, the
/// block-bitmap scan and the worker's codec error. Each is an SSE2 loop
/// plus a scalar tail (a plain scalar loop where SSE2 is absent); the
/// default RelWithDebInfo build (-O2) does not auto-vectorize the scalar
/// forms. Every kernel returns exactly what its scalar form does, bit for
/// bit.

/// dst[i] += src[i].
void add(float* dst, const float* src, std::size_t n);

/// dst[i] -= src[i].
void sub(float* dst, const float* src, std::size_t n);

/// max |p[i]| as a double; NaNs are skipped, 0 for n == 0.
double max_abs(const float* p, std::size_t n);

/// max |double(a[i]) - double(b[i])|. A NaN on exactly one side is an
/// unbounded error (+inf); NaN on both sides, or equal infinities, match.
double max_abs_diff(const float* a, const float* b, std::size_t n);

/// True when some p[i] != 0.0f: -0.0f counts as zero, any NaN or denormal
/// as non-zero.
bool any_nonzero(const float* p, std::size_t n);

}  // namespace omr::tensor::kernels
