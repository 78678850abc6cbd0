#include "tensor/dense.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels.h"

namespace omr::tensor {

namespace {

/// Elements per cache block of the multi-tensor passes: 4 KB, so the
/// block of the output (or reference) stays in L1 while each input's block
/// streams past it once.
constexpr std::size_t kChunk = 1024;

void check_sizes(std::span<const DenseTensor* const> tensors, std::size_t n) {
  for (const DenseTensor* t : tensors) {
    if (t->size() != n) throw std::invalid_argument("size mismatch");
  }
}

}  // namespace

void DenseTensor::add_inplace(const DenseTensor& other) {
  if (other.size() != size()) throw std::invalid_argument("size mismatch");
  kernels::add(v_.data(), other.v_.data(), v_.size());
}

void DenseTensor::axpy_inplace(float scale, const DenseTensor& other) {
  if (other.size() != size()) throw std::invalid_argument("size mismatch");
  for (std::size_t i = 0; i < v_.size(); ++i) v_[i] += scale * other.v_[i];
}

void DenseTensor::scale_inplace(float scale) {
  for (float& x : v_) x *= scale;
}

std::size_t DenseTensor::nnz() const {
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [](float x) { return x != 0.0f; }));
}

double DenseTensor::sparsity() const {
  if (v_.empty()) return 0.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(v_.size());
}

double DenseTensor::l2_norm() const {
  double s = 0.0;
  for (float x : v_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

DenseTensor reference_sum(std::span<const DenseTensor* const> tensors,
                          double* input_amax) {
  if (input_amax != nullptr) *input_amax = 0.0;
  if (tensors.empty()) return DenseTensor{};
  const std::size_t n = tensors.front()->size();
  check_sizes(tensors, n);
  DenseTensor out(n);
  double amax = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kChunk) {
    const std::size_t len = std::min(kChunk, n - lo);
    float* dst = out.values().data() + lo;
    // Inputs are added in order onto the zeroed block: per element the
    // same operations, in the same order, as summing whole tensors.
    for (const DenseTensor* t : tensors) {
      const float* src = t->values().data() + lo;
      kernels::add(dst, src, len);
      if (input_amax != nullptr) {
        amax = std::max(amax, kernels::max_abs(src, len));
      }
    }
  }
  if (input_amax != nullptr) *input_amax = amax;
  return out;
}

DenseTensor reference_sum(std::span<const DenseTensor> tensors) {
  std::vector<const DenseTensor*> refs;
  refs.reserve(tensors.size());
  for (const DenseTensor& t : tensors) refs.push_back(&t);
  return reference_sum(refs);
}

double max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  if (a.size() != b.size()) throw std::invalid_argument("size mismatch");
  return kernels::max_abs_diff(a.values().data(), b.values().data(), a.size());
}

double max_abs_diff(std::span<const DenseTensor* const> results,
                    const DenseTensor& reference) {
  const std::size_t n = reference.size();
  check_sizes(results, n);
  double m = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kChunk) {
    const std::size_t len = std::min(kChunk, n - lo);
    const float* ref = reference.values().data() + lo;
    for (const DenseTensor* r : results) {
      m = std::max(m, kernels::max_abs_diff(r->values().data() + lo, ref, len));
    }
  }
  return m;
}

double l2_diff(const DenseTensor& a, const DenseTensor& b) {
  if (a.size() != b.size()) throw std::invalid_argument("size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace omr::tensor
