#include "nn/layers.hpp"

#include <cmath>
#include <vector>

#include "tensor/gemm.hpp"

namespace eugene::nn {

using tensor::Tensor;

namespace {

ActivationView same_dims_view(const ActivationView& input, ScratchArena& arena) {
  return ActivationView::make(std::span<const std::size_t>(input.dims, input.rank),
                              arena);
}

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(tensor::Conv2dGeometry geometry, Rng& rng)
    : geometry_(geometry),
      weights_({geometry.out_channels, geometry.in_channels * geometry.kernel * geometry.kernel}),
      bias_({geometry.out_channels}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  // He initialization: stddev = sqrt(2 / fan_in).
  const double fan_in = static_cast<double>(geometry.in_channels) *
                        static_cast<double>(geometry.kernel) *
                        static_cast<double>(geometry.kernel);
  const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
  weights_ = Tensor::randn(weights_.shape(), rng, stddev);
}

ActivationView Conv2d::infer(const ActivationView& input, ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3 && input.dims[0] == geometry_.in_channels &&
                     input.dims[1] == geometry_.in_height &&
                     input.dims[2] == geometry_.in_width,
                 "Conv2d::infer: geometry mismatch");
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  const std::size_t ohw = oh * ow;
  const std::size_t patch =
      geometry_.in_channels * geometry_.kernel * geometry_.kernel;
  const std::size_t out_dims[3] = {geometry_.out_channels, oh, ow};
  ActivationView out = ActivationView::make(out_dims, arena);
  if (geometry_.stride == 1 && ow % 8 == 0) {
    // Implicit im2col, for out widths that are a multiple of 8 (the served
    // 16×16 and 8×8 convs): embed the input in a zero-padded frame, then
    // hand gemm_rows one B-row pointer per (c, ky, kx) — the row is just the
    // padded channel shifted by (ky, kx) — with its columns folded onto the
    // frame's rows (width ow, pitch pw), so output pixel (oy, ox) reads frame
    // offset oy·pw + ox. Same kernel chain as im2col + gemm, so the
    // activations are bitwise-identical; only the [patch, OHW] column copy
    // disappears. The kernels read 8 contiguous columns at a time, so 4-wide
    // planes take the explicit route below.
    const std::size_t kh = geometry_.kernel;
    const std::size_t pw = geometry_.in_width + 2 * geometry_.padding;
    const std::size_t plane = (geometry_.in_height + 2 * geometry_.padding) * pw;
    float* frame = arena.alloc(tensor::im2col_frame_floats(geometry_));
    tensor::pad_into_frame(input.data, geometry_, frame);
    const float** brows = arena.alloc_ptrs(patch);
    std::size_t p = 0;
    for (std::size_t c = 0; c < geometry_.in_channels; ++c)
      for (std::size_t ky = 0; ky < kh; ++ky)
        for (std::size_t kx = 0; kx < kh; ++kx)
          brows[p++] = frame + c * plane + ky * pw + kx;
    tensor::gemm_rows(geometry_.out_channels, ohw, patch, weights_.raw(),
                      patch, brows, ow, pw, /*beta=*/0.0f, out.data, ohw);
  } else {
    float* frame = arena.alloc(tensor::im2col_frame_floats(geometry_));
    float* cols = arena.alloc(patch * ohw);
    tensor::im2col_into(input.data, geometry_, frame, cols);
    tensor::gemm(geometry_.out_channels, ohw, patch, weights_.raw(), patch,
                 /*trans_a=*/false, cols, ohw, /*trans_b=*/false,
                 /*beta=*/0.0f, out.data, ohw);
  }
  const float* bb = bias_.raw();
  for (std::size_t oc = 0; oc < geometry_.out_channels; ++oc) {
    const float b = bb[oc];
    float* row = out.data + oc * ohw;
    for (std::size_t i = 0; i < ohw; ++i) row[i] += b;
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::size_t ohw = geometry_.out_height() * geometry_.out_width();
  EUGENE_REQUIRE(grad_output.numel() == geometry_.out_channels * ohw,
                 "Conv2d::backward: gradient shape mismatch");
  const Tensor grad_mat = grad_output.reshaped({geometry_.out_channels, ohw});
  grad_weights_ +=
      tensor::matmul_transpose_b(grad_mat, tensor::im2col(kept_input(), geometry_));
  for (std::size_t oc = 0; oc < geometry_.out_channels; ++oc) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < ohw; ++i) acc += grad_mat.at(oc, i);
    grad_bias_.at(oc) += acc;
  }
  const Tensor grad_cols = tensor::matmul_transpose_a(weights_, grad_mat);
  return tensor::col2im(grad_cols, geometry_);
}

std::vector<ParamRef> Conv2d::params() {
  return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(geometry_.kernel) + "x" + std::to_string(geometry_.kernel) +
         "(" + std::to_string(geometry_.in_channels) + "->" +
         std::to_string(geometry_.out_channels) + ")";
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weights_({out_features, in_features}),
      bias_({out_features}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  EUGENE_REQUIRE(in_features > 0 && out_features > 0, "Dense: zero-sized layer");
  const float stddev = static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features)));
  weights_ = Tensor::randn(weights_.shape(), rng, stddev);
}

ActivationView Dense::infer(const ActivationView& input, ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 1 && input.dims[0] == in_features_,
                 "Dense::infer: input size mismatch");
  ActivationView out = ActivationView::make({&out_features_, 1}, arena);
  tensor::gemm(out_features_, 1, in_features_, weights_.raw(), in_features_,
               /*trans_a=*/false, input.data, 1, /*trans_b=*/false,
               /*beta=*/0.0f, out.data, 1);
  const float* bb = bias_.raw();
  for (std::size_t o = 0; o < out_features_; ++o) out.data[o] += bb[o];
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.numel() == out_features_, "Dense::backward: grad size mismatch");
  const float* g = grad_output.raw();
  const float* x = kept_input().raw();
  float* gw = grad_weights_.raw();
  for (std::size_t o = 0; o < out_features_; ++o) {
    grad_bias_.at(o) += g[o];
    float* gwrow = gw + o * in_features_;
    for (std::size_t i = 0; i < in_features_; ++i) gwrow[i] += g[o] * x[i];
  }
  Tensor grad_in({in_features_});
  const float* w = weights_.raw();
  float* gi = grad_in.raw();
  for (std::size_t o = 0; o < out_features_; ++o) {
    const float* wrow = w + o * in_features_;
    for (std::size_t i = 0; i < in_features_; ++i) gi[i] += g[o] * wrow[i];
  }
  return grad_in;
}

std::vector<ParamRef> Dense::params() {
  return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_features_) + "->" + std::to_string(out_features_) + ")";
}

// ------------------------------------------------------------------ ReLU

ActivationView ReLU::infer(const ActivationView& input, ScratchArena& arena) const {
  ActivationView out = same_dims_view(input, arena);
  const float* x = input.data;
  float* o = out.data;
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const Tensor& input = kept_input();
  EUGENE_REQUIRE(grad_output.numel() == input.numel(), "ReLU::backward: shape mismatch");
  Tensor grad_in(input.shape());
  const float* x = input.raw();
  const float* g = grad_output.raw();
  float* gi = grad_in.raw();
  const std::size_t n = input.numel();
  // g times the 1/0 mask of x > 0, so a NaN or inf g at a dead unit stays NaN.
  // Mask, then multiply: two loops vectorize, one of g·(x > 0 ? 1 : 0) branches.
  for (std::size_t i = 0; i < n; ++i) gi[i] = x[i] > 0.0f ? 1.0f : 0.0f;
  for (std::size_t i = 0; i < n; ++i) gi[i] *= g[i];
  return grad_in;
}

// ----------------------------------------------------------- ChannelNorm

ChannelNorm::ChannelNorm(std::size_t channels, float epsilon)
    : channels_(channels),
      epsilon_(epsilon),
      gain_({channels}, 1.0f),
      bias_({channels}),
      grad_gain_({channels}),
      grad_bias_({channels}) {
  EUGENE_REQUIRE(channels > 0, "ChannelNorm: zero channels");
}

// forward() and infer() run one tensor::channel_norm body, which is what
// keeps inference bitwise equal to the training forward.
Tensor ChannelNorm::forward(const Tensor& input) {
  EUGENE_REQUIRE(input.rank() == 3 && input.dim(0) == channels_,
                 "ChannelNorm::forward: expected CHW with matching channels");
  Tensor out(input.shape());
  cached_xhat_ = Tensor(input.shape());
  cached_inv_std_.assign(channels_, 0.0f);
  tensor::plane_kernels().channel_norm(
      {.x = input.raw(), .channels = channels_, .hw = input.dim(1) * input.dim(2),
       .epsilon = epsilon_, .gain = gain_.raw(), .bias = bias_.raw(), .out = out.raw(),
       .xhat = cached_xhat_.raw(), .inv_std = cached_inv_std_.data()});
  return out;
}

ActivationView ChannelNorm::infer(const ActivationView& input,
                                  ScratchArena& arena) const {
  return infer_folded(input, arena, /*relu=*/false);
}

ActivationView ChannelNorm::infer_folded(const ActivationView& input, ScratchArena& arena,
                                         bool relu, const float* shortcut) const {
  EUGENE_REQUIRE(input.rank == 3 && input.dims[0] == channels_,
                 "ChannelNorm::infer: expected CHW with matching channels");
  ActivationView out = same_dims_view(input, arena);
  tensor::plane_kernels().channel_norm(
      {.x = input.data, .channels = channels_, .hw = input.dims[1] * input.dims[2],
       .epsilon = epsilon_, .gain = gain_.raw(), .bias = bias_.raw(),
       .shortcut = shortcut, .relu = relu, .out = out.data});
  return out;
}

Tensor ChannelNorm::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.same_shape(cached_xhat_), "ChannelNorm::backward: shape mismatch");
  const std::size_t hw = cached_xhat_.dim(1) * cached_xhat_.dim(2);
  Tensor grad_in(cached_xhat_.shape());
  const float* g = grad_output.raw();
  const float* xh = cached_xhat_.raw();
  float* gi = grad_in.raw();
  for (std::size_t c = 0; c < channels_; ++c) {
    const float* gc = g + c * hw;
    const float* xhc = xh + c * hw;
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::size_t i = 0; i < hw; ++i) {
      sum_g += gc[i];
      sum_gx += gc[i] * xhc[i];
    }
    grad_bias_.at(c) += static_cast<float>(sum_g);
    grad_gain_.at(c) += static_cast<float>(sum_gx);
    const float gain = gain_.at(c);
    const float inv_std = cached_inv_std_[c];
    const float mean_g = static_cast<float>(sum_g / static_cast<double>(hw));
    const float mean_gx = static_cast<float>(sum_gx / static_cast<double>(hw));
    for (std::size_t i = 0; i < hw; ++i)
      gi[c * hw + i] = gain * inv_std * (gc[i] - mean_g - xhc[i] * mean_gx);
  }
  return grad_in;
}

std::vector<ParamRef> ChannelNorm::params() {
  return {{&gain_, &grad_gain_}, {&bias_, &grad_bias_}};
}

// --------------------------------------------------------------- Dropout

Dropout::Dropout(float drop_probability, std::uint64_t seed)
    : p_(drop_probability), seed_(seed), rng_(seed) {
  EUGENE_REQUIRE(p_ >= 0.0f && p_ < 1.0f, "Dropout: probability must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input) {
  if (p_ == 0.0f) return input;
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  const float* x = input.raw();
  float* m = mask_.raw();
  float* o = out.raw();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool keep_unit = !rng_.bernoulli(p_);
    m[i] = keep_unit ? scale : 0.0f;
    o[i] = x[i] * m[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (p_ == 0.0f) return grad_output;
  EUGENE_REQUIRE(grad_output.numel() == mask_.numel(), "Dropout::backward: shape mismatch");
  Tensor grad_in(mask_.shape());
  const float* g = grad_output.raw();
  const float* m = mask_.raw();
  float* gi = grad_in.raw();
  for (std::size_t i = 0; i < mask_.numel(); ++i) gi[i] = g[i] * m[i];
  return grad_in;
}

std::string Dropout::name() const {
  return "dropout(p=" + std::to_string(p_) + ")";
}

// --------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return nn::infer(*this, input);
}

ActivationView Flatten::infer(const ActivationView& input,
                              ScratchArena& /*arena*/) const {
  // A row-major sample flattens to its own storage.
  ActivationView out;
  out.data = input.data;
  out.rank = 1;
  out.dims[0] = input.numel();
  return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

// --------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return nn::infer(*this, input);
}

ActivationView GlobalAvgPool::infer(const ActivationView& input,
                                    ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3 && input.dims[1] * input.dims[2] > 0,
                 "GlobalAvgPool::infer: expected a non-empty CHW image");
  const std::size_t c = input.dims[0];
  ActivationView out = ActivationView::make({&c, 1}, arena);
  tensor::plane_kernels().global_avg_pool(input.data, c, input.dims[1] * input.dims[2],
                                          out.data);
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(cached_shape_.size() == 3, "GlobalAvgPool::backward before forward");
  const std::size_t c = cached_shape_[0];
  const std::size_t hw = cached_shape_[1] * cached_shape_[2];
  EUGENE_REQUIRE(grad_output.numel() == c, "GlobalAvgPool::backward: grad size mismatch");
  Tensor grad_in(cached_shape_);
  float* gi = grad_in.raw();
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float share = grad_output.at(ch) / static_cast<float>(hw);
    for (std::size_t i = 0; i < hw; ++i) gi[ch * hw + i] = share;
  }
  return grad_in;
}

// -------------------------------------------------------------- MaxPool2

ActivationView MaxPool2::infer(const ActivationView& input, ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3, "MaxPool2::infer: expected CHW image");
  const std::size_t c = input.dims[0];
  const std::size_t ih = input.dims[1], iw = input.dims[2];
  EUGENE_REQUIRE(ih >= 2 && iw >= 2, "MaxPool2::infer: image too small");
  const std::size_t out_dims[3] = {c, ih / 2, iw / 2};
  ActivationView out = ActivationView::make(out_dims, arena);
  tensor::plane_kernels().max_pool_2x2(input.data, c, ih, iw, out.data);
  return out;
}

Tensor MaxPool2::backward(const Tensor& grad_output) {
  const Tensor& input = kept_input();
  EUGENE_REQUIRE(input.rank() == 3, "MaxPool2::backward before forward");
  const std::size_t c = input.dim(0), ih = input.dim(1), iw = input.dim(2);
  const std::size_t oh = ih / 2, ow = iw / 2;
  EUGENE_REQUIRE(grad_output.numel() == c * oh * ow, "MaxPool2::backward: shape mismatch");
  Tensor grad_in(input.shape());
  const float* x = input.raw();
  const float* g = grad_output.raw();
  float* gi = grad_in.raw();
  // Each window's gradient goes to the element infer() kept: the first,
  // unless a later one (row-major) compares >.
  const std::size_t offsets[4] = {0, 1, iw, iw + 1};
  for (std::size_t ch = 0; ch < c; ++ch)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t xo = 0; xo < ow; ++xo) {
        const std::size_t corner = (ch * ih + 2 * y) * iw + 2 * xo;
        std::size_t best = corner;
        for (const std::size_t off : offsets)
          if (x[corner + off] > x[best]) best = corner + off;
        gi[best] += g[(ch * oh + y) * ow + xo];
      }
  return grad_in;
}

// ----------------------------------------------------------------- clone
//
// Each clone() copies configuration + learned parameters only. Training
// scratch (kept inputs, masks, gradient accumulators) stays at its
// freshly-constructed state: it is meaningless outside a forward/backward
// pair.

std::unique_ptr<Layer> Conv2d::clone() const {
  Rng init_rng(0);  // initializer weights are replaced by the copy below
  auto copy = std::make_unique<Conv2d>(geometry_, init_rng);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  return copy;
}

std::unique_ptr<Layer> Dense::clone() const {
  Rng init_rng(0);  // initializer weights are replaced by the copy below
  auto copy = std::make_unique<Dense>(in_features_, out_features_, init_rng);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  return copy;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

std::unique_ptr<Layer> ChannelNorm::clone() const {
  auto copy = std::make_unique<ChannelNorm>(channels_, epsilon_);
  copy->gain_ = gain_;
  copy->bias_ = bias_;
  return copy;
}

std::unique_ptr<Layer> Dropout::clone() const {
  // Restart the sampler from the construction seed rather than copying the
  // advancing rng_ state, which is training scratch like the mask.
  return std::make_unique<Dropout>(p_, seed_);
}

std::unique_ptr<Layer> Flatten::clone() const { return std::make_unique<Flatten>(); }

std::unique_ptr<Layer> GlobalAvgPool::clone() const { return std::make_unique<GlobalAvgPool>(); }

std::unique_ptr<Layer> MaxPool2::clone() const { return std::make_unique<MaxPool2>(); }

}  // namespace eugene::nn
