#include "nn/layers.hpp"

#include <cmath>
#include <cstring>
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

Tensor Conv2d::forward(const Tensor& input) {
  const std::size_t ohw = geometry_.out_height() * geometry_.out_width();
  const std::size_t patch =
      geometry_.in_channels * geometry_.kernel * geometry_.kernel;
  // Backward needs the unrolled columns, so they are the persistent cache.
  cached_cols_ = tensor::im2col(input, geometry_);
  Tensor out({geometry_.out_channels, geometry_.out_height(), geometry_.out_width()});
  tensor::gemm(geometry_.out_channels, ohw, patch, weights_.raw(), patch,
               /*trans_a=*/false, cached_cols_.raw(), ohw, /*trans_b=*/false,
               /*beta=*/0.0f, out.raw(), ohw);
  float* op = out.raw();
  const float* bb = bias_.raw();
  for (std::size_t oc = 0; oc < geometry_.out_channels; ++oc) {
    const float b = bb[oc];
    for (std::size_t i = 0; i < ohw; ++i) op[oc * ohw + i] += b;
  }
  return out;
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
  const float* bb = bias_.raw();
  if (geometry_.stride == 1 && ow >= 8 &&
      geometry_.out_channels <= tensor::gemm_rows_max_m()) {
    // Implicit im2col: embed each input plane in a zero-padded frame, then
    // hand gemm_rows one B-row pointer per (c, ky, kx) — the row is just
    // the padded channel shifted by (ky, kx). Column index j of that
    // implicit B walks the padded frame linearly (width pw, not ow), so
    // the GEMM computes a padded-width output whose fringe columns are
    // discarded by the compaction below. Same kernel chain as im2col +
    // gemm, so the activations are bitwise-identical — only the big
    // [patch, OHW] column materialization disappears.
    const std::size_t kh = geometry_.kernel;
    const std::size_t pad = geometry_.padding;
    const std::size_t ih = geometry_.in_height;
    const std::size_t iw = geometry_.in_width;
    const std::size_t pw = iw + 2 * pad;
    const std::size_t plane = (ih + 2 * pad) * pw;
    // The GEMM only needs columns up to the last valid output element —
    // everything past (oh−1)·pw + ow in the frame is fringe.
    const std::size_t ng = (oh - 1) * pw + ow;
    // The last B row's window extends (kh−1)·pw + kh − 1 floats past the
    // last frame; the guard keeps those (discarded-output) reads in bounds.
    const std::size_t guard = (kh - 1) * pw + kh - 1;
    float* padbuf = arena.alloc(geometry_.in_channels * plane + guard);
    std::fill_n(padbuf + geometry_.in_channels * plane, guard, 0.0f);
    for (std::size_t c = 0; c < geometry_.in_channels; ++c) {
      float* dst = padbuf + c * plane;
      const float* src = input.data + c * ih * iw;
      std::fill_n(dst, pad * pw, 0.0f);
      for (std::size_t iy = 0; iy < ih; ++iy) {
        float* row = dst + (pad + iy) * pw;
        for (std::size_t x = 0; x < pad; ++x) row[x] = 0.0f;
        std::memcpy(row + pad, src + iy * iw, iw * sizeof(float));
        for (std::size_t x = pad + iw; x < pw; ++x) row[x] = 0.0f;
      }
      std::fill_n(dst + (pad + ih) * pw, pad * pw, 0.0f);
    }
    const float** brows = arena.alloc_ptrs(patch);
    std::size_t p = 0;
    for (std::size_t c = 0; c < geometry_.in_channels; ++c)
      for (std::size_t ky = 0; ky < kh; ++ky)
        for (std::size_t kx = 0; kx < kh; ++kx)
          brows[p++] = padbuf + c * plane + ky * pw + kx;
    float* cbuf = arena.alloc(geometry_.out_channels * ng);
    tensor::gemm_rows(geometry_.out_channels, ng, patch, weights_.raw(),
                      patch, brows, /*beta=*/0.0f, cbuf, ng);
    ActivationView out = ActivationView::make(out_dims, arena);
    for (std::size_t oc = 0; oc < geometry_.out_channels; ++oc) {
      const float bias = bb[oc];
      for (std::size_t oy = 0; oy < oh; ++oy) {
        const float* src = cbuf + oc * ng + oy * pw;
        float* dst = out.data + oc * ohw + oy * ow;
        for (std::size_t x = 0; x < ow; ++x) dst[x] = src[x] + bias;
      }
    }
    return out;
  }
  float* cols = arena.alloc(patch * ohw);
  tensor::im2col_into(input.data, geometry_, cols);
  ActivationView out = ActivationView::make(out_dims, arena);
  float* ws = arena.alloc(
      tensor::gemm_workspace_floats(geometry_.out_channels, ohw, patch));
  tensor::gemm(geometry_.out_channels, ohw, patch, weights_.raw(), patch,
               /*trans_a=*/false, cols, ohw, /*trans_b=*/false, /*beta=*/0.0f,
               out.data, ohw, ws);
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
  grad_weights_ += tensor::matmul_transpose_b(grad_mat, cached_cols_);
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

Tensor Dense::forward(const Tensor& input) {
  EUGENE_REQUIRE(input.numel() == in_features_, "Dense::forward: input size mismatch");
  cached_input_ = input.reshaped({in_features_});
  Tensor out({out_features_});
  // Routed through the GEMM core (n = 1) with the bias added after the sum,
  // so the training forward is bitwise-identical to infer() (see
  // Layer::infer's numerics contract).
  tensor::gemm(out_features_, 1, in_features_, weights_.raw(), in_features_,
               /*trans_a=*/false, input.raw(), 1, /*trans_b=*/false,
               /*beta=*/0.0f, out.raw(), 1);
  float* o = out.raw();
  const float* bb = bias_.raw();
  for (std::size_t i = 0; i < out_features_; ++i) o[i] += bb[i];
  return out;
}

ActivationView Dense::infer(const ActivationView& input, ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 1 && input.dims[0] == in_features_,
                 "Dense::infer: input size mismatch");
  ActivationView out = ActivationView::make({&out_features_, 1}, arena);
  float* ws = arena.alloc(
      tensor::gemm_workspace_floats(out_features_, 1, in_features_));
  tensor::gemm(out_features_, 1, in_features_, weights_.raw(), in_features_,
               /*trans_a=*/false, input.data, 1, /*trans_b=*/false,
               /*beta=*/0.0f, out.data, 1, ws);
  const float* bb = bias_.raw();
  for (std::size_t o = 0; o < out_features_; ++o) out.data[o] += bb[o];
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.numel() == out_features_, "Dense::backward: grad size mismatch");
  const float* g = grad_output.raw();
  const float* x = cached_input_.raw();
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

Tensor ReLU::forward(const Tensor& input) {
  Tensor out(input.shape());
  mask_ = Tensor(input.shape());
  const float* x = input.raw();
  float* o = out.raw();
  float* m = mask_.raw();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool positive = x[i] > 0.0f;
    m[i] = positive ? 1.0f : 0.0f;
    o[i] = positive ? x[i] : 0.0f;
  }
  return out;
}

ActivationView ReLU::infer(const ActivationView& input, ScratchArena& arena) const {
  ActivationView out = same_dims_view(input, arena);
  const float* x = input.data;
  float* o = out.data;
  const std::size_t n = input.numel();
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.numel() == mask_.numel(), "ReLU::backward: shape mismatch");
  Tensor grad_in(mask_.shape());
  const float* g = grad_output.raw();
  const float* m = mask_.raw();
  float* gi = grad_in.raw();
  for (std::size_t i = 0; i < mask_.numel(); ++i) gi[i] = g[i] * m[i];
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

namespace {

// Shared per-plane normalization core: the training forward and infer() must
// round identically (double mean/var, float xhat) for inference to stay
// bitwise-equal to the training forward.
void channel_norm_plane(const float* xc, std::size_t hw, float epsilon, float g,
                        float b, float* out, float* xhat_out, float* inv_std_out) {
  // Eight fixed-order accumulator lanes: a single running double sum is a
  // serial 4-cycle add chain (≈ hw·4 cycles per pass); lanes overlap the
  // adds and vectorize. The lane count and combine order are fixed, so the
  // result is deterministic and shared verbatim by the training forward and
  // infer() (their bitwise equality only needs this function to be one
  // function).
  double lane[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= hw; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lane[l] += xc[i + l];
  for (; i < hw; ++i) lane[i % 8] += xc[i];
  double mean = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  mean /= static_cast<double>(hw);
  for (std::size_t l = 0; l < 8; ++l) lane[l] = 0.0;
  i = 0;
  for (; i + 8 <= hw; i += 8)
    for (std::size_t l = 0; l < 8; ++l) {
      const double d = xc[i + l] - mean;
      lane[l] += d * d;
    }
  for (; i < hw; ++i) {
    const double d = xc[i] - mean;
    lane[i % 8] += d * d;
  }
  double var = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  var /= static_cast<double>(hw);
  const float inv_std = static_cast<float>(1.0 / std::sqrt(var + epsilon));
  if (inv_std_out != nullptr) *inv_std_out = inv_std;
  for (std::size_t i = 0; i < hw; ++i) {
    const float xhat = (xc[i] - static_cast<float>(mean)) * inv_std;
    if (xhat_out != nullptr) xhat_out[i] = xhat;
    out[i] = g * xhat + b;
  }
}

}  // namespace

Tensor ChannelNorm::forward(const Tensor& input) {
  EUGENE_REQUIRE(input.rank() == 3 && input.dim(0) == channels_,
                 "ChannelNorm::forward: expected CHW with matching channels");
  const std::size_t hw = input.dim(1) * input.dim(2);
  Tensor out(input.shape());
  cached_xhat_ = Tensor(input.shape());
  cached_inv_std_.assign(channels_, 0.0f);
  const float* x = input.raw();
  float* o = out.raw();
  float* xh = cached_xhat_.raw();
  for (std::size_t c = 0; c < channels_; ++c) {
    channel_norm_plane(x + c * hw, hw, epsilon_, gain_.at(c), bias_.at(c),
                       o + c * hw, xh + c * hw, &cached_inv_std_[c]);
  }
  return out;
}

ActivationView ChannelNorm::infer(const ActivationView& input,
                                  ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3 && input.dims[0] == channels_,
                 "ChannelNorm::infer: expected CHW with matching channels");
  const std::size_t hw = input.dims[1] * input.dims[2];
  ActivationView out = same_dims_view(input, arena);
  for (std::size_t c = 0; c < channels_; ++c)
    channel_norm_plane(input.data + c * hw, hw, epsilon_, gain_.at(c), bias_.at(c),
                       out.data + c * hw, nullptr, nullptr);
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
  return input.reshaped({input.numel()});
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
  return tensor::global_avg_pool(input);
}

ActivationView GlobalAvgPool::infer(const ActivationView& input,
                                    ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3, "GlobalAvgPool::infer: expected CHW");
  const std::size_t c = input.dims[0];
  const std::size_t hw = input.dims[1] * input.dims[2];
  EUGENE_REQUIRE(hw > 0, "GlobalAvgPool::infer: empty image plane");
  ActivationView out = ActivationView::make({&c, 1}, arena);
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float* plane = input.data + ch * hw;
    // float accumulator, matching tensor::global_avg_pool bit for bit
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
    out.data[ch] = acc / static_cast<float>(hw);
  }
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

Tensor MaxPool2::forward(const Tensor& input) {
  EUGENE_REQUIRE(input.rank() == 3, "MaxPool2: expected CHW image");
  const std::size_t c = input.dim(0);
  const std::size_t oh = input.dim(1) / 2, ow = input.dim(2) / 2;
  EUGENE_REQUIRE(oh > 0 && ow > 0, "MaxPool2: image too small");
  Tensor out({c, oh, ow});
  cached_in_shape_ = input.shape();
  argmax_.assign(c * oh * ow, 0);
  const std::size_t ih = input.dim(1), iw = input.dim(2);
  const float* x = input.raw();
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t xo = 0; xo < ow; ++xo) {
        std::size_t best = ch * ih * iw + (2 * y) * iw + 2 * xo;
        for (std::size_t dy = 0; dy < 2; ++dy)
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t idx = ch * ih * iw + (2 * y + dy) * iw + (2 * xo + dx);
            if (x[idx] > x[best]) best = idx;
          }
        out.at(ch, y, xo) = x[best];
        argmax_[(ch * oh + y) * ow + xo] = best;
      }
    }
  }
  return out;
}

ActivationView MaxPool2::infer(const ActivationView& input, ScratchArena& arena) const {
  EUGENE_REQUIRE(input.rank == 3, "MaxPool2::infer: expected CHW image");
  const std::size_t c = input.dims[0];
  const std::size_t ih = input.dims[1], iw = input.dims[2];
  const std::size_t oh = ih / 2, ow = iw / 2;
  EUGENE_REQUIRE(oh > 0 && ow > 0, "MaxPool2::infer: image too small");
  const std::size_t out_dims[3] = {c, oh, ow};
  ActivationView out = ActivationView::make(out_dims, arena);
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float* x = input.data + ch * ih * iw;
    float* o = out.data + ch * oh * ow;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t xo = 0; xo < ow; ++xo) {
        std::size_t best = (2 * y) * iw + 2 * xo;
        for (std::size_t dy = 0; dy < 2; ++dy)
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t idx = (2 * y + dy) * iw + (2 * xo + dx);
            if (x[idx] > x[best]) best = idx;
          }
        o[y * ow + xo] = x[best];
      }
    }
  }
  return out;
}

Tensor MaxPool2::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.numel() == argmax_.size(), "MaxPool2::backward: shape mismatch");
  Tensor grad_in(cached_in_shape_);
  float* gi = grad_in.raw();
  const float* g = grad_output.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gi[argmax_[i]] += g[i];
  return grad_in;
}

// ----------------------------------------------------------------- clone
//
// Each clone() copies configuration + learned parameters only. Training
// scratch (cached activations, masks, argmax tables, gradient accumulators)
// stays at its freshly-constructed state: it is meaningless outside a
// forward/backward pair.

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
