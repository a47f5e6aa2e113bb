// Internal micro-kernel interface shared by the per-ISA translation units.
//
// A micro-kernel computes the first `rows` rows of one mr×nr tile of C,
// acc[r][j] = Σ_p a[r·lda + p]·b[p][j], reading A row-major in place and B
// through StridedB or GatheredB, then stores it to C (row stride ldc):
// overwriting when beta == 0, accumulating when beta == 1. Nothing is
// padded in k, so every C entry is an exact ordered sum of real products.
#pragma once

#include <cstddef>

namespace eugene::tensor::detail {

/// Row/column register-tile extents, bounded so the driver can size its
/// n-tail buffers for any ISA.
inline constexpr std::size_t kMaxMr = 4;
inline constexpr std::size_t kMaxNr = 16;

/// B read in place as a row-major matrix: row p starts at b + p·ldb. row()
/// points at a tile's first 8 columns and row_hi() at its next 8.
struct StridedB {
  const float* b = nullptr;
  std::size_t ldb = 0;
  const float* row(std::size_t p) const { return b + p * ldb; }
  const float* row_hi(std::size_t p) const { return row(p) + 8; }
  /// The same B from row p and column j on.
  StridedB at(std::size_t p, std::size_t j) const { return {b + p * ldb + j, ldb}; }
};

/// One tile's view of a FoldedB: row p's first 8 columns start at
/// rows[p] + lo, its next 8 at rows[p] + hi.
struct GatheredB {
  const float* const* rows = nullptr;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const float* row(std::size_t p) const { return rows[p] + lo; }
  const float* row_hi(std::size_t p) const { return rows[p] + hi; }
};

/// B given as k row pointers whose n columns fold onto lines of `width`
/// floats spaced `pitch` apart: column j of row p is at rows[p] +
/// (j / width)·pitch + j % width. Rows may overlap arbitrarily; conv layers
/// point them at shifted windows of one zero-padded image, whose output
/// rows are the lines (implicit im2col). Each 8 columns a tile reads must be
/// contiguous, so width is a multiple of 8 or at least n.
struct FoldedB {
  const float* const* rows = nullptr;
  std::size_t width = 0;
  std::size_t pitch = 0;
  std::size_t fold(std::size_t j) const { return j / width * pitch + j % width; }
  GatheredB at(std::size_t p, std::size_t j) const {
    return {rows + p, fold(j), fold(j + 8)};
  }
};

/// One ISA level's micro-kernel and its tile shape.
///
/// `direct` reads B through StridedB and `gather` through GatheredB; both
/// run the same per-element accumulation chain (same op, FMA or mul+add,
/// same p order), so a C entry is bitwise-identical whichever computed it.
/// Both compute the first `rows` (≤ mr) rows of an mr×nr tile at full nr
/// width. mr divides 8, 16 and 32, the served conv channel counts, so those
/// GEMMs only ever run full tiles.
struct KernelInfo {
  std::size_t mr = 0;  ///< tile rows
  std::size_t nr = 0;  ///< tile columns
  void (*direct)(std::size_t rows, std::size_t kc, const float* a,
                 std::size_t lda, StridedB b, float* c, std::size_t ldc,
                 float beta) = nullptr;
  void (*gather)(std::size_t rows, std::size_t kc, const float* a,
                 std::size_t lda, GatheredB b, float* c, std::size_t ldc,
                 float beta) = nullptr;
};

/// Portable kernel, always available.
KernelInfo scalar_kernel();

/// True when the CPU supports AVX2 and FMA (always false off x86-64).
bool avx2_fma_supported();

/// AVX2+FMA kernel (a 4×16 tile, direct and gather). Calling it on
/// a CPU without AVX2/FMA is undefined; guard with avx2_fma_supported(). Off
/// x86-64 this returns the scalar kernel so the dispatch table stays total.
KernelInfo avx2_kernel();

}  // namespace eugene::tensor::detail
