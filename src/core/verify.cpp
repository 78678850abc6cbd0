#include "core/verify.h"

#include <algorithm>

#include "tensor/blocks.h"
#include "tensor/kernels.h"

namespace omr::core {

namespace {

/// Pointers to each of `tensors`, the form the check's passes take.
std::vector<const tensor::DenseTensor*> tensor_refs(
    const std::vector<tensor::DenseTensor>& tensors) {
  std::vector<const tensor::DenseTensor*> refs;
  refs.reserve(tensors.size());
  for (const tensor::DenseTensor& t : tensors) refs.push_back(&t);
  return refs;
}

/// reference_reduce over `tensors`; with `input_amax`, also max |input|.
tensor::DenseTensor reduce(std::span<const tensor::DenseTensor* const> tensors,
                           const Config& cfg, double* input_amax) {
  if (cfg.op == ReduceOp::kSum) {
    return tensor::reference_sum(tensors, input_amax);
  }
  const std::size_t n = tensors.front()->size();
  const std::size_t bs = cfg.block_size;
  tensor::DenseTensor out(n);
  std::vector<tensor::BlockBitmap> maps;
  maps.reserve(tensors.size());
  for (const tensor::DenseTensor* t : tensors) maps.emplace_back(t->span(), bs);
  const std::size_t nb = tensor::num_blocks(n, bs);
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t lo = b * bs;
    const std::size_t hi = std::min(lo + bs, n);
    bool first = true;
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      if (!cfg.dense_mode &&
          !maps[w].nonzero(static_cast<tensor::BlockIndex>(b))) {
        continue;
      }
      const tensor::DenseTensor& in = *tensors[w];
      for (std::size_t i = lo; i < hi; ++i) {
        if (first) {
          out[i] = in[i];
        } else if (cfg.op == ReduceOp::kMin) {
          out[i] = std::min(out[i], in[i]);
        } else {
          out[i] = std::max(out[i], in[i]);
        }
      }
      first = false;
    }
  }
  if (input_amax != nullptr) {
    *input_amax = 0.0;
    for (const tensor::DenseTensor* t : tensors) {
      *input_amax = std::max(
          *input_amax, tensor::kernels::max_abs(t->values().data(), n));
    }
  }
  return out;
}

}  // namespace

tensor::DenseTensor reference_reduce(
    const std::vector<tensor::DenseTensor>& tensors, const Config& cfg) {
  return reduce(tensor_refs(tensors), cfg, nullptr);
}

ResultCheck::ResultCheck(std::span<const tensor::DenseTensor* const> inputs,
                         const Config& cfg) {
  reference_ =
      reduce(inputs, cfg, cfg.codec.enabled() ? &input_amax_ : nullptr);
}

ResultCheck::ResultCheck(const std::vector<tensor::DenseTensor>& inputs,
                         const Config& cfg)
    : ResultCheck(tensor_refs(inputs), cfg) {}

double ResultCheck::max_error(
    std::span<const tensor::DenseTensor* const> results) const {
  return tensor::max_abs_diff(results, reference_);
}

double ResultCheck::max_error(
    const std::vector<tensor::DenseTensor>& results) const {
  return max_error(tensor_refs(results));
}

}  // namespace omr::core
