#include "tensor/tensor.hpp"

#include <sstream>

namespace eugene::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shape_numel(shape_), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  EUGENE_REQUIRE(data_.size() == shape_numel(shape_),
                 "data size does not match shape " + shape_to_string(shape_));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

std::size_t Tensor::flat_index(std::span<const std::size_t> idx) const {
  EUGENE_REQUIRE(idx.size() == shape_.size(),
                 "index rank mismatch for shape " + shape_to_string(shape_));
  std::size_t flat = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    EUGENE_REQUIRE(idx[d] < shape_[d], "index out of bounds in dim");
    flat = flat * shape_[d] + idx[d];
  }
  return flat;
}

float& Tensor::at(std::size_t i) {
  const std::size_t idx[] = {i};
  return data_[flat_index(idx)];
}
float Tensor::at(std::size_t i) const {
  const std::size_t idx[] = {i};
  return data_[flat_index(idx)];
}
float& Tensor::at(std::size_t i, std::size_t j) {
  const std::size_t idx[] = {i, j};
  return data_[flat_index(idx)];
}
float Tensor::at(std::size_t i, std::size_t j) const {
  const std::size_t idx[] = {i, j};
  return data_[flat_index(idx)];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k) {
  const std::size_t idx[] = {i, j, k};
  return data_[flat_index(idx)];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k) const {
  const std::size_t idx[] = {i, j, k};
  return data_[flat_index(idx)];
}
float& Tensor::at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
  const std::size_t idx[] = {i, j, k, l};
  return data_[flat_index(idx)];
}
float Tensor::at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const {
  const std::size_t idx[] = {i, j, k, l};
  return data_[flat_index(idx)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  EUGENE_REQUIRE(shape_numel(new_shape) == numel(),
                 "reshape " + shape_to_string(shape_) + " -> " +
                     shape_to_string(new_shape) + " changes element count");
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  for (float& v : data_) v = value;
}

Tensor& Tensor::operator+=(const Tensor& other) {
  EUGENE_REQUIRE(same_shape(other), "operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  EUGENE_REQUIRE(same_shape(other), "operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

}  // namespace eugene::tensor
