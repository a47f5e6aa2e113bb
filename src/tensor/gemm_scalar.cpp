// Portable micro-kernel: a 4×8 register tile in plain C++. The fixed inner
// extents let the compiler keep the accumulators in registers and
// auto-vectorize with whatever the baseline ISA offers (SSE2 on x86-64).
#include "tensor/gemm_kernel.hpp"

namespace eugene::tensor::detail {
namespace {

constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

void kernel_4x8(std::size_t kc, const float* a_panel, const float* b_panel,
                float* c, std::size_t ldc, float beta) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * kMr;
    const float* b = b_panel + p * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float ar = a[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += ar * b[j];
    }
  }
  if (beta == 0.0f) {
    for (std::size_t r = 0; r < kMr; ++r)
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
  } else {
    for (std::size_t r = 0; r < kMr; ++r)
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] += acc[r][j];
  }
}

// No-pack variant over the first R rows of the tile: same accumulator layout
// and per-element mul-then-add chain as kernel_4x8, reading A row-major in
// place and B row p at b.row(p).
template <std::size_t R, class B>
void tile_rows(std::size_t kc, const float* a, std::size_t lda, B b, float* c,
               std::size_t ldc, float beta) {
  float acc[R][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b.row(p);
    for (std::size_t r = 0; r < R; ++r) {
      const float ar = a[r * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += ar * brow[j];
    }
  }
  if (beta == 0.0f) {
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
  } else {
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] += acc[r][j];
  }
}

template <class B>
void tile_4x8(std::size_t rows, std::size_t kc, const float* a,
              std::size_t lda, B b, float* c, std::size_t ldc, float beta) {
  switch (rows) {
    case kMr: return tile_rows<kMr>(kc, a, lda, b, c, ldc, beta);
    case 3: return tile_rows<3>(kc, a, lda, b, c, ldc, beta);
    case 2: return tile_rows<2>(kc, a, lda, b, c, ldc, beta);
    default: return tile_rows<1>(kc, a, lda, b, c, ldc, beta);
  }
}

}  // namespace

KernelInfo scalar_kernel() {
  return {kMr, kNr, kMr, &kernel_4x8, &tile_4x8<StridedB>, &tile_4x8<GatheredB>};
}

}  // namespace eugene::tensor::detail
