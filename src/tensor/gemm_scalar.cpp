// Portable micro-kernel: a 4×8 register tile in plain C++ with GCC vector
// types. Each row keeps two 4-float accumulators, so the compiler
// vectorizes across columns with whatever the baseline ISA offers (SSE2 on
// x86-64) instead of gathering A along p.
#include <cstring>

#include "tensor/gemm_kernel.hpp"

namespace eugene::tensor::detail {
namespace {

constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

using Vec4 = float __attribute__((vector_size(16)));

Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

// The first R rows of the tile, reading A row-major in place and B row p's
// 8 columns at b.row(p). Per C entry: acc += a·b, multiply then add, in p
// order.
template <std::size_t R, class B>
void tile_rows(std::size_t kc, const float* a, std::size_t lda, B b, float* c,
               std::size_t ldc, float beta) {
  Vec4 acc[R][2] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = b.row(p);
    const Vec4 b0 = load4(brow);
    const Vec4 b1 = load4(brow + 4);
    for (std::size_t r = 0; r < R; ++r) {
      const float ar = a[r * lda + p];
      acc[r][0] += ar * b0;
      acc[r][1] += ar * b1;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    if (beta == 0.0f) {
      store4(crow, acc[r][0]);
      store4(crow + 4, acc[r][1]);
    } else {
      store4(crow, load4(crow) + acc[r][0]);
      store4(crow + 4, load4(crow + 4) + acc[r][1]);
    }
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
  return {kMr, kNr, &tile_4x8<StridedB>, &tile_4x8<GatheredB>};
}

}  // namespace eugene::tensor::detail
