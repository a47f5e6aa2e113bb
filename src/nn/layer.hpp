// Layer abstraction for the Eugene neural-network stack.
//
// Each layer has two routes. Training runs forward()/backward() one sample at
// a time; minibatch SGD accumulates parameter gradients across samples before
// each optimizer step, and forward() caches what backward() needs. Inference
// runs the const infer() over one sample's ActivationView with arena-backed
// scratch; it writes nothing but its arena, so any number of threads may run
// it on one layer at once. nn::infer wraps it for callers that hold a Tensor
// (DESIGN.md §14).
#pragma once

#include <experimental/propagate_const>
#include <memory>
#include <string>
#include <vector>

#include "nn/arena.hpp"
#include "tensor/tensor.hpp"

namespace eugene::nn {

/// Owning child pointer whose pointee is const inside const methods, so a
/// const inference path cannot reach a child's training forward().
template <typename T>
using ChildPtr = std::experimental::propagate_const<std::unique_ptr<T>>;

/// A learnable parameter and its gradient accumulator, exposed by layers so
/// optimizers and serializers can walk a model without knowing layer types.
struct ParamRef {
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Training forward for one sample: computes the output and caches what
  /// backward() needs (dropout samples a fresh mask here).
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Propagates the loss gradient from output to input, accumulating
  /// parameter gradients. Must follow a forward() on the same sample.
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Inference forward for one sample. Output storage comes from `arena`,
  /// or is the input's own storage for a layer that only reshapes or passes
  /// it through; layers never write through their input view. Numerics
  /// contract: the output is bitwise equal to forward() of the same sample —
  /// except Dropout, whose inference is the identity (the GEMM core's
  /// accumulation order depends only on k, which makes this achievable —
  /// DESIGN.md §14).
  virtual ActivationView infer(const ActivationView& input,
                               ScratchArena& arena) const = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Multiply-add FLOPs of one forward pass (0 for negligible layers);
  /// consumed by the execution profiler.
  virtual double flops() const { return 0.0; }

  /// Diagnostic name, e.g. "conv3x3(8->32)".
  virtual std::string name() const = 0;

  /// Deep copy of the layer's *persistent* state: configuration and learned
  /// parameters, never the training scratch (cached activations, masks,
  /// gradient accumulators). A clone is independent: training it never
  /// touches the original.
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Layer::infer for a Tensor in and out, on this thread's arena. The input
/// is viewed in place. Throws InvalidArgument before any layer runs when the
/// input's rank is outside [1, 4].
inline tensor::Tensor infer(const Layer& layer, const tensor::Tensor& input) {
  const ActivationView in = ActivationView::of(input);
  ScratchArena& arena = thread_arena();
  arena.reset();
  const ActivationView out = layer.infer(in, arena);
  return tensor::Tensor(tensor::Shape(out.dims, out.dims + out.rank),
                        std::vector<float>(out.data, out.data + out.numel()));
}

/// Downcasting clone helper for callers that hold a concrete layer type
/// (every concrete layer is `final`, so clone() returns exactly that type).
template <typename L>
std::unique_ptr<L> clone_layer_as(const L& layer) {
  std::unique_ptr<Layer> copy = layer.clone();
  return std::unique_ptr<L>(static_cast<L*>(copy.release()));
}

/// Ordered container of layers, itself a layer.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent building.
  Sequential& add(std::unique_ptr<Layer> layer) {
    EUGENE_REQUIRE(layer != nullptr, "Sequential::add: null layer");
    layers_.emplace_back(std::move(layer));
    return *this;
  }

  tensor::Tensor forward(const tensor::Tensor& input) override {
    tensor::Tensor x = input;
    for (auto& layer : layers_) x = layer->forward(x);
    return x;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    tensor::Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
  }

  ActivationView infer(const ActivationView& input,
                       ScratchArena& arena) const override {
    ActivationView x = input;
    for (const auto& layer : layers_) x = layer->infer(x, arena);
    return x;
  }

  std::vector<ParamRef> params() override {
    std::vector<ParamRef> out;
    for (auto& layer : layers_) {
      auto p = layer->params();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  double flops() const override {
    double total = 0.0;
    for (const auto& layer : layers_) total += layer->flops();
    return total;
  }

  std::string name() const override { return "sequential(" + std::to_string(layers_.size()) + ")"; }

  std::unique_ptr<Layer> clone() const override { return clone_sequential(); }

  /// Typed clone (Sequential is what StagedModel stages are built from).
  std::unique_ptr<Sequential> clone_sequential() const {
    auto copy = std::make_unique<Sequential>();
    for (const auto& layer : layers_) copy->add(layer->clone());
    return copy;
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) {
    EUGENE_REQUIRE(i < layers_.size(), "Sequential::layer index out of range");
    return *layers_[i];
  }

 private:
  std::vector<ChildPtr<Layer>> layers_;
};

/// Zeroes the gradient accumulators of every parameter in `params`.
inline void zero_grads(const std::vector<ParamRef>& params) {
  for (const auto& p : params) p.grad->fill(0.0f);
}

}  // namespace eugene::nn
