// The PlaneKernels of each ISA level, one translation unit each:
// plane_scalar.cpp, and plane_avx2.cpp (AVX2 without FMA).
#pragma once

#include "tensor/ops.hpp"

namespace eugene::tensor::detail {

PlaneKernels scalar_plane_kernels();

/// Callable only where avx2_fma_supported(); off x86-64 the scalar set.
PlaneKernels avx2_plane_kernels();

}  // namespace eugene::tensor::detail
