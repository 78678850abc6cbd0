#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "tensor/dense.h"

namespace omr::tensor {

/// Sparse tensor in coordinate-list (COO) format: parallel arrays of sorted
/// indices and values. This is the input format assumed by AGsparse and
/// SparCML; keys are 32-bit as in the paper's cost model (c_i = 4).
struct CooTensor {
  std::size_t dim = 0;               // logical dense length
  std::vector<std::int32_t> keys;    // sorted, unique
  std::vector<float> values;         // same length as keys

  std::size_t nnz() const { return keys.size(); }
  /// Serialized size: one key + one value per non-zero.
  std::size_t wire_bytes() const { return nnz() * (sizeof(std::int32_t) + sizeof(float)); }
};

/// Convert dense -> COO, keeping only non-zero elements (sorted by index).
CooTensor dense_to_coo(const DenseTensor& t);

/// Convert COO -> dense.
DenseTensor coo_to_dense(const CooTensor& t);

/// Merge-add two sorted COO tensors (the local reduction AGsparse/SparCML
/// perform after gathering).
CooTensor coo_add(const CooTensor& a, const CooTensor& b);

/// Sums sparse (key, value) contributions over the key range [lo, hi) in a
/// flat float array, the way a sparse parameter-server shard does. Each
/// slot starts at 0.0f and adds its contributions in arrival order (so a
/// lone -0.0f comes back as +0.0f, as with a zero-initialised map). A
/// touched flag per slot keeps keys whose sum is zero: they were pushed,
/// so they are part of the result.
class CooShardAccumulator {
 public:
  CooShardAccumulator(std::int32_t lo, std::int32_t hi);

  /// Fold n pairs in order; throws std::logic_error for a key outside
  /// [lo, hi) (pairs before it are already folded).
  void add(const std::int32_t* keys, const float* values, std::size_t n);

  /// Number of distinct keys added so far.
  std::size_t nnz() const { return nnz_; }
  /// Replace `keys` and `values` with the touched keys in ascending order
  /// and their sums.
  void emit(std::vector<std::int32_t>& keys, std::vector<float>& values) const;

 private:
  std::int32_t lo_;
  std::vector<float> acc_;
  std::vector<std::uint8_t> touched_;
  std::size_t nnz_ = 0;
};

/// Cost model for format conversion on a worker (Fig. 8): the converter
/// scans the dense tensor and packs (or unpacks) the sparse representation.
/// `mem_bandwidth_Bps` is the effective packing rate. The 2 GB/s default is
/// calibrated to PyTorch's dense<->COO conversion (nonzero() + gather +
/// host transfer), which runs far below raw memcpy speed — this rate
/// reproduces the paper's AGsparse-with-conversion anchors (Fig. 8 and the
/// ~2.0x @10 Gbps / ~0.3x @100 Gbps compressed-AGsparse speedups of
/// Fig. 10).
sim::Time conversion_cost(std::size_t dense_elements, std::size_t nnz,
                          double mem_bandwidth_Bps = 2e9);

}  // namespace omr::tensor
