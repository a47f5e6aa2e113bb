// AVX2+FMA micro-kernel: a 4×16 register tile (8 ymm accumulators) that
// reads A row-major and B in place, strided or through row pointers.
// Compiled with per-function target attributes so this TU builds under the
// project's baseline flags; only runtime dispatch (avx2_fma_supported) may
// route execution here.
#include "tensor/gemm_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eugene::tensor::detail {

#if defined(__x86_64__) || defined(__i386__)

namespace {

constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;

// The first R rows of a 4×16 tile: broadcast A, two 8-wide B loads, fmadd
// in p order, reading A row-major in place and B row p's 16 columns at
// b.row(p) and b.row_hi(p). Four rows divide every served conv's
// out_channels (8, 16, 32), so their GEMMs run on full tiles with 8
// accumulators in registers; R < 4 is the m-edge, still register-resident
// because R is a compile-time constant.
template <std::size_t R, class B>
__attribute__((target("avx2,fma"))) void tile_rows(
    std::size_t kc, const float* a, std::size_t lda, B b, float* c,
    std::size_t ldc, float beta) {
  __m256 acc[R][2];
  for (std::size_t r = 0; r < R; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  std::size_t p = 0;
  // Two k steps per iteration: halves loop overhead and gives the scheduler
  // two independent FMA groups. Each C entry still sees the same ordered
  // per-p chain, so results are unchanged bit-for-bit.
  for (; p + 2 <= kc; p += 2) {
    const __m256 b0 = _mm256_loadu_ps(b.row(p));
    const __m256 b1 = _mm256_loadu_ps(b.row_hi(p));
    const __m256 b2 = _mm256_loadu_ps(b.row(p + 1));
    const __m256 b3 = _mm256_loadu_ps(b.row_hi(p + 1));
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 ar0 = _mm256_broadcast_ss(a + r * lda + p);
      acc[r][0] = _mm256_fmadd_ps(ar0, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar0, b1, acc[r][1]);
      const __m256 ar1 = _mm256_broadcast_ss(a + r * lda + p + 1);
      acc[r][0] = _mm256_fmadd_ps(ar1, b2, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar1, b3, acc[r][1]);
    }
  }
  for (; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b.row(p));
    const __m256 b1 = _mm256_loadu_ps(b.row_hi(p));
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 ar = _mm256_broadcast_ss(a + r * lda + p);
      acc[r][0] = _mm256_fmadd_ps(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(ar, b1, acc[r][1]);
    }
  }
  if (beta == 0.0f) {
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc, acc[r][0]);
      _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
    }
  } else {
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc,
                       _mm256_add_ps(_mm256_loadu_ps(c + r * ldc), acc[r][0]));
      _mm256_storeu_ps(
          c + r * ldc + 8,
          _mm256_add_ps(_mm256_loadu_ps(c + r * ldc + 8), acc[r][1]));
    }
  }
}

template <class B>
__attribute__((target("avx2,fma"))) void tile_4x16(
    std::size_t rows, std::size_t kc, const float* a, std::size_t lda, B b,
    float* c, std::size_t ldc, float beta) {
  switch (rows) {
    case kMr: return tile_rows<kMr>(kc, a, lda, b, c, ldc, beta);
    case 3: return tile_rows<3>(kc, a, lda, b, c, ldc, beta);
    case 2: return tile_rows<2>(kc, a, lda, b, c, ldc, beta);
    default: return tile_rows<1>(kc, a, lda, b, c, ldc, beta);
  }
}

}  // namespace

bool avx2_fma_supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

KernelInfo avx2_kernel() {
  return {kMr, kNr, &tile_4x16<StridedB>, &tile_4x16<GatheredB>};
}

#else  // non-x86: AVX2 is never available; keep the table total.

bool avx2_fma_supported() { return false; }

KernelInfo avx2_kernel() { return scalar_kernel(); }

#endif

}  // namespace eugene::tensor::detail
