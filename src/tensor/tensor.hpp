// Dense row-major float tensor. The single data container used by the neural
// network library, the Gaussian-process module, and the profiler.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace eugene::tensor {

/// Shape of a tensor: extent per dimension, row-major layout.
using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form for error messages.
std::string shape_to_string(const Shape& shape);

/// A dense, owning, row-major float tensor.
///
/// Rank is dynamic (vector-of-extents) because the NN stack mixes rank-1
/// biases, rank-2 dense weights, and rank-4 conv weights. Element access is
/// bounds-checked through at(); hot loops use data() spans.
class Tensor {
 public:
  /// Empty rank-1 tensor of zero elements.
  Tensor() : shape_{0} {}

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor filled with `value`.
  Tensor(Shape shape, float value);

  /// Tensor adopting the given flat data; data.size() must match the shape.
  Tensor(Shape shape, std::vector<float> data);

  /// Factory: all zeros.
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  /// Factory: i.i.d. Gaussian entries.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }

  /// Extent of dimension `d` (bounds-checked).
  std::size_t dim(std::size_t d) const {
    EUGENE_REQUIRE(d < shape_.size(), "dim index out of range");
    return shape_[d];
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  /// Bounds-checked element access for rank 1..4.
  float& at(std::size_t i);
  float at(std::size_t i) const;
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;
  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;
  float& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l);
  float at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const;

  /// Returns a tensor with the same data and a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const;

  /// Sets every element to `value`.
  void fill(float value);

  /// Elementwise in-place operations.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);

  /// Elementwise comparisons for tests.
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::size_t flat_index(std::span<const std::size_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace eugene::tensor
