// Compressed-sparse-row matrix — the "edge pruning" execution baseline.
//
// The paper (§II-B, citing DeepIoT): zeroed edges give a sparse matrix whose
// storage and compute savings "do not scale proportionally to the fraction
// of zero entries", because sparse algebra carries per-element index
// overhead. This CSR implementation plus bench_reduction demonstrates the
// effect on real hardware.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace eugene::reduce {

/// CSR matrix with float values.
class CsrMatrix {
 public:
  /// Builds from a dense matrix, dropping exact zeros.
  static CsrMatrix from_dense(const tensor::Tensor& dense);

  /// y = A·x.
  std::vector<float> multiply(std::span<const float> x) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Bytes needed to store the CSR structure (values + column indices +
  /// row pointers) — compare with rows·cols·4 for dense.
  std::size_t storage_bytes() const {
    return values_.size() * (sizeof(float) + sizeof(std::uint32_t)) +
           row_ptr_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> values_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<std::uint32_t> row_ptr_;
};

/// Dense y = A·x reference used in the comparison benches.
std::vector<float> dense_multiply(const tensor::Tensor& a, std::span<const float> x);

}  // namespace eugene::reduce
