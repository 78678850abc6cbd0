#pragma once

#include <span>
#include <vector>

#include "core/config.h"
#include "tensor/dense.h"

namespace omr::core {

/// Reference reduction matching the engine's sparse semantics: per block
/// position, fold contributing workers (all workers in dense mode, workers
/// with a non-zero block otherwise) element-wise with the operator; block
/// positions nobody contributes stay zero. For kSum this is the plain sum.
tensor::DenseTensor reference_reduce(
    const std::vector<tensor::DenseTensor>& tensors, const Config& cfg);

/// The result check every allreduce host shares. Built before the run,
/// from the inputs the run overwrites: one cache-blocked pass yields the
/// reference_reduce result and, when `cfg.codec` is enabled, the largest
/// input magnitude its verification slack scales with. After the run,
/// max_error() measures all results against the reference in one more
/// pass. Each host keeps its own tolerance rule.
class ResultCheck {
 public:
  ResultCheck() = default;
  ResultCheck(std::span<const tensor::DenseTensor* const> inputs,
              const Config& cfg);
  ResultCheck(const std::vector<tensor::DenseTensor>& inputs,
              const Config& cfg);

  const tensor::DenseTensor& reference() const { return reference_; }
  /// max |input| when cfg.codec is enabled, else 0.
  double input_amax() const { return input_amax_; }

  /// Largest |result - reference| over every element of every result; a
  /// NaN on one side only is an unbounded error (+inf).
  double max_error(std::span<const tensor::DenseTensor* const> results) const;
  double max_error(const std::vector<tensor::DenseTensor>& results) const;

 private:
  tensor::DenseTensor reference_;
  double input_amax_ = 0.0;
};

}  // namespace omr::core
