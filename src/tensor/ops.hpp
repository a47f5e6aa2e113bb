// Tensor kernels: matmul family, im2col convolution, pooling.
//
// These are the compute primitives under eugene::nn. Shapes follow CHW for
// single images and [rows, cols] for matrices. The matmul family and im2col
// are thin wrappers over the tiled SIMD GEMM core in gemm.hpp (DESIGN.md
// §14); the `_into` variants write into caller-provided storage so arena-
// backed inference allocates nothing per call — im2col_into reads one raw
// CHW image, the storage a conv's inference view points at.
#pragma once

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace eugene::tensor {

/// C = A(m×k) * B(k×n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ(k×m becomes m×k) * B(k×n): matmul with A transposed, no copy.
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C = A(m×k) * Bᵀ(n×k becomes k×n): matmul with B transposed, no copy.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

/// matmul writing into `out` (must be pre-shaped [m, n]). `workspace` is
/// packing scratch of gemm_workspace_floats(m, n, k) floats, or null for
/// the internal thread-local buffer.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 float* workspace = nullptr);

/// matmul_transpose_a writing into `out` ([m, n], A stored k×m).
void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out,
                             float* workspace = nullptr);

/// matmul_transpose_b writing into `out` ([m, n], B stored n×k).
void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out,
                             float* workspace = nullptr);

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

/// im2col writing into caller storage: reads a CHW image matching `g` at
/// `image_chw` and writes C·k·k rows of H_out·W_out floats to `cols`.
/// Interior rows are bulk copies; padding is zero-filled (no per-pixel
/// bounds branch at stride 1).
void im2col_into(const float* image_chw, const Conv2dGeometry& g, float* cols);

/// Inverse of im2col: scatters column gradients back into CHW, accumulating
/// overlapping patches.
Tensor col2im(const Tensor& cols, const Conv2dGeometry& g);

/// conv2d forward for one CHW image using im2col + matmul.
/// `weights` is [C_out, C_in·k·k], `bias` is [C_out].
Tensor conv2d(const Tensor& image_chw, const Tensor& weights, const Tensor& bias,
              const Conv2dGeometry& g);

/// Direct (no-im2col) conv2d used as a correctness oracle and as the second
/// execution regime in the profiler's cost model.
Tensor conv2d_direct(const Tensor& image_chw, const Tensor& weights, const Tensor& bias,
                     const Conv2dGeometry& g);

/// 2×2 max pooling with stride 2 over CHW; odd trailing rows/cols dropped.
Tensor max_pool2(const Tensor& image_chw);

/// Global average pool: CHW → [C].
Tensor global_avg_pool(const Tensor& image_chw);

}  // namespace eugene::tensor
