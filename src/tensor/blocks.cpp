#include "tensor/blocks.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "tensor/kernels.h"

namespace omr::tensor {

std::size_t num_blocks(std::size_t n, std::size_t block_size) {
  if (block_size == 0) throw std::invalid_argument("block_size must be > 0");
  return (n + block_size - 1) / block_size;
}

BlockBitmap::BlockBitmap(std::span<const float> data, std::size_t block_size)
    : block_size_(block_size),
      n_blocks_(num_blocks(data.size(), block_size)) {
  words_.assign((n_blocks_ + 63) / 64, 0);
  for (std::size_t b = 0; b < n_blocks_; ++b) {
    const std::size_t lo = b * block_size;
    if (kernels::any_nonzero(data.data() + lo,
                             std::min(block_size, data.size() - lo))) {
      words_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }
}

BlockIndex BlockBitmap::next_nonzero(BlockIndex from) const {
  if (from < 0) from = 0;
  std::size_t b = static_cast<std::size_t>(from);
  if (b >= n_blocks_) return kNoBlock;
  std::size_t w = b >> 6;
  // Trailing bits past n_blocks_ are never set, so no end mask is needed.
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (b & 63));
  while (word == 0) {
    if (++w >= words_.size()) return kNoBlock;
    word = words_[w];
  }
  return static_cast<BlockIndex>((w << 6) +
                                 static_cast<std::size_t>(std::countr_zero(word)));
}

BlockIndex BlockBitmap::next_nonzero_in_column(BlockIndex from,
                                               std::size_t column,
                                               std::size_t stride,
                                               BlockIndex limit) const {
  if (stride == 0) throw std::invalid_argument("stride must be > 0");
  if (from < 0) from = 0;
  const std::size_t end =
      limit == kNoBlock
          ? n_blocks_
          : std::min(static_cast<std::size_t>(limit), n_blocks_);
  // Advance to the first index >= from in the requested column.
  std::size_t b = static_cast<std::size_t>(from);
  const std::size_t rem = b % stride;
  if (rem != column) {
    b += (column >= rem) ? (column - rem) : (stride - rem + column);
  }
  if (stride == 1) {
    const BlockIndex r = next_nonzero(static_cast<BlockIndex>(b));
    return (r == kNoBlock || static_cast<std::size_t>(r) >= end) ? kNoBlock
                                                                 : r;
  }
  if (b >= end) return kNoBlock;
  if (64 % stride == 0) {
    // The stride divides the word width, so the column's candidate bits sit
    // at the same offsets in every word: one AND per word finds the column's
    // first set bit, skipping 64/stride candidates at a time.
    std::uint64_t colmask = 0;
    for (std::size_t o = column % stride; o < 64; o += stride) {
      colmask |= std::uint64_t{1} << o;
    }
    std::size_t w = b >> 6;
    const std::size_t w_end = (end + 63) >> 6;
    std::uint64_t m = words_[w] & colmask & (~std::uint64_t{0} << (b & 63));
    while (m == 0) {
      if (++w >= w_end) return kNoBlock;
      m = words_[w] & colmask;
    }
    const std::size_t idx =
        (w << 6) + static_cast<std::size_t>(std::countr_zero(m));
    return idx < end ? static_cast<BlockIndex>(idx) : kNoBlock;
  }
  for (; b < end; b += stride) {
    if ((words_[b >> 6] >> (b & 63)) & 1u) return static_cast<BlockIndex>(b);
  }
  return kNoBlock;
}

std::size_t BlockBitmap::nonzero_count() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

double BlockBitmap::block_sparsity() const {
  if (n_blocks_ == 0) return 0.0;
  return 1.0 - static_cast<double>(nonzero_count()) /
                   static_cast<double>(n_blocks_);
}

std::vector<std::uint8_t> BlockBitmap::bits() const {
  std::vector<std::uint8_t> out(n_blocks_, 0);
  for (std::size_t b = 0; b < n_blocks_; ++b) {
    out[b] = static_cast<std::uint8_t>((words_[b >> 6] >> (b & 63)) & 1u);
  }
  return out;
}

double block_sparsity(const DenseTensor& t, std::size_t block_size) {
  return BlockBitmap(t.span(), block_size).block_sparsity();
}

double density_within_blocks(const DenseTensor& t, std::size_t block_size) {
  const BlockBitmap bm(t.span(), block_size);
  std::size_t nz_blocks = 0;
  std::size_t nz_elems = 0;
  std::size_t elems_in_nz_blocks = 0;
  for (std::size_t b = 0; b < bm.size(); ++b) {
    if (!bm.nonzero(static_cast<BlockIndex>(b))) continue;
    ++nz_blocks;
    const std::size_t lo = b * block_size;
    const std::size_t hi = std::min(lo + block_size, t.size());
    elems_in_nz_blocks += hi - lo;
    for (std::size_t i = lo; i < hi; ++i) {
      if (t[i] != 0.0f) ++nz_elems;
    }
  }
  if (nz_blocks == 0) return 0.0;
  return static_cast<double>(nz_elems) /
         static_cast<double>(elems_in_nz_blocks);
}

}  // namespace omr::tensor
