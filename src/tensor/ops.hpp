// Tensor kernels: matmul family, im2col convolution, channel norm, pooling.
//
// These are the compute primitives under eugene::nn. Shapes follow CHW for
// single images and [rows, cols] for matrices. The matmul family and im2col
// are thin wrappers over the tiled SIMD GEMM core in gemm.hpp (DESIGN.md
// §14); im2col_into writes into caller-provided storage so arena-backed
// inference allocates nothing per call — it reads one raw CHW image, the
// storage a conv's inference view points at. Channel norm and
// the pools read and write raw CHW planes too, through one body per ISA
// level that the GEMM's active_gemm_isa() picks.
#pragma once

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace eugene::tensor {

/// C = A(m×k) * B(k×n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ(k×m becomes m×k) * B(k×n): matmul with A transposed.
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C = A(m×k) * Bᵀ(n×k becomes k×n): matmul with B transposed.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// Geometry of a 2-D convolution over a CHW image.
struct Conv2dGeometry {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 1;  ///< "same" padding for kernel 3, stride 1

  std::size_t out_height() const {
    EUGENE_REQUIRE(in_height + 2 * padding >= kernel, "conv: kernel exceeds padded input");
    return (in_height + 2 * padding - kernel) / stride + 1;
  }
  std::size_t out_width() const {
    EUGENE_REQUIRE(in_width + 2 * padding >= kernel, "conv: kernel exceeds padded input");
    return (in_width + 2 * padding - kernel) / stride + 1;
  }

  /// Multiply-accumulate count ×2 (the FLOPs convention used by Table I).
  double flops() const {
    return 2.0 * static_cast<double>(out_channels) * static_cast<double>(out_height()) *
           static_cast<double>(out_width()) * static_cast<double>(in_channels) *
           static_cast<double>(kernel) * static_cast<double>(kernel);
  }
};

/// Unrolls image patches into a [C·k·k, H_out·W_out] matrix.
Tensor im2col(const Tensor& image_chw, const Conv2dGeometry& g);

/// Floats of a conv's zero-padded frame: every input channel inside a
/// border of `padding`, C·(H + 2·padding)·(W + 2·padding).
std::size_t im2col_frame_floats(const Conv2dGeometry& g);

/// Writes the CHW image matching `g` into `frame` (im2col_frame_floats(g)
/// floats), each plane inside a zero border of `padding`.
void pad_into_frame(const float* image_chw, const Conv2dGeometry& g,
                    float* frame);

/// im2col writing into caller storage: reads a CHW image matching `g` at
/// `image_chw` and writes C·k·k rows of H_out·W_out floats to `cols`,
/// through `frame` (im2col_frame_floats(g) floats of scratch): after
/// pad_into_frame, every row of `cols` is a run of plain copies with no
/// bounds test. "Same" 3×3 stride-1 convs on 4×4, 8×8 and 16×16 planes copy
/// at compile-time extents.
void im2col_into(const float* image_chw, const Conv2dGeometry& g, float* frame,
                 float* cols);

/// Inverse of im2col: scatters column gradients back into CHW, accumulating
/// overlapping patches.
Tensor col2im(const Tensor& cols, const Conv2dGeometry& g);

/// Direct (no-im2col) conv2d for one CHW image: the tests' correctness
/// oracle for nn::Conv2d. `weights` is [C_out, C_in·k·k], `bias` is [C_out].
Tensor conv2d_direct(const Tensor& image_chw, const Tensor& weights, const Tensor& bias,
                     const Conv2dGeometry& g);

/// One ChannelNorm pass over `channels` CHW planes of `hw` floats. Per
/// plane: mean and variance in double over eight lanes (element i joins lane
/// i % 8 in index order; lanes combine as ((0+1)+(2+3)) + ((4+5)+(6+7))),
/// inv_std = float(1 / sqrt(var + epsilon)); per element, in float,
/// x̂ = (x − float(mean))·inv_std and y = gain·x̂ + bias (a multiply, then an
/// add), y += shortcut when set, y = y > 0 ? y : 0 when `relu`. `xhat` and
/// `inv_std` (the training forward's caches) are written when non-null.
struct ChannelNormPass {
  const float* x = nullptr;
  std::size_t channels = 0, hw = 0;
  float epsilon = 0.0f;
  const float *gain = nullptr, *bias = nullptr, *shortcut = nullptr;
  bool relu = false;
  float *out = nullptr, *xhat = nullptr, *inv_std = nullptr;
};

/// Channel norm and the pools on one ISA level. Every level computes the
/// same bits; the training forward and inference share them (DESIGN.md §14).
struct PlaneKernels {
  void (*channel_norm)(const ChannelNormPass& pass);
  /// `channels` planes of `hw` floats into out[c]: each plane's serial float
  /// sum in index order, divided by hw.
  void (*global_avg_pool)(const float* image_chw, std::size_t channels, std::size_t hw,
                          float* out);
  /// 2×2 stride-2 max pool of height×width planes, an odd last row or column
  /// dropped. Each window keeps its first element (row-major) unless a later
  /// one compares `>` the kept one: ties and ±0 keep the first, and a NaN
  /// wins only in the first position.
  void (*max_pool_2x2)(const float* image_chw, std::size_t channels, std::size_t height,
                       std::size_t width, float* out);
};

/// The bodies of `isa`, which must be available.
PlaneKernels plane_kernels_with_isa(GemmIsa isa);

/// The bodies of active_gemm_isa().
inline PlaneKernels plane_kernels() { return plane_kernels_with_isa(active_gemm_isa()); }

}  // namespace eugene::tensor
