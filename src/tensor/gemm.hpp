// Tiled, packed, runtime-dispatched single-precision GEMM (DESIGN.md §14).
//
// This is the compute core every Eugene stage bottoms out in: a BLIS-style
// register-tiled micro-kernel under cache blocking, with A and B repacked
// into contiguous panels so the kernel streams at unit stride regardless of
// the caller's layout or transposition. Each ISA level lives in its own
// translation unit (gemm_scalar.cpp always; gemm_avx2.cpp built with
// AVX2+FMA target attributes on x86-64) and the best supported kernel is
// picked once, at first use.
//
// Numerics contract: C entries are plain ordered sums of a[i,p]*b[p,j] over
// p — no zero-skip fast paths, so 0·NaN and 0·inf propagate as IEEE says
// (Matmul.NaNInfPropagation pins this). The accumulation order over p
// depends only on k and the fixed KC blocking, never on m or n, which is
// what makes stage inference bit-identical to the training forward.
#pragma once

#include <cstddef>
#include <optional>

namespace eugene::tensor {

/// Instruction-set level of the GEMM micro-kernel.
enum class GemmIsa {
  kScalar = 0,  ///< portable C++ kernel, auto-vectorized at best
  kAvx2 = 1,    ///< 6×16 AVX2+FMA kernel (x86-64 only)
};

/// Diagnostic name ("scalar", "avx2").
const char* gemm_isa_name(GemmIsa isa);

/// True when this machine can execute the given ISA level.
bool gemm_isa_available(GemmIsa isa);

/// Parses an EUGENE_GEMM_ISA override value ("scalar" / "avx2");
/// nullopt for unrecognized text. Pure — exposed for tests.
std::optional<GemmIsa> parse_gemm_isa(const char* text);

/// The ISA level selected for this process: the best available, unless the
/// EUGENE_GEMM_ISA environment variable forces a level (an unavailable or
/// unrecognized forced level logs a warning and falls back). Resolved once,
/// on first call.
GemmIsa active_gemm_isa();

/// Workspace floats gemm() needs for its packing panels at these dimensions.
/// Callers that own scratch memory (nn::ScratchArena) size it with this; a
/// null workspace makes gemm() fall back to a grow-once thread-local buffer.
std::size_t gemm_workspace_floats(std::size_t m, std::size_t n, std::size_t k);

/// C(m×n) = A·B + beta·C with optional logical transposes.
///
/// `a` stores A row-major with leading dimension `lda` — logically m×k, or
/// k×m when `trans_a` (the transpose is absorbed by the packing; nothing is
/// copied up front). Same for `b`/`ldb`/`trans_b` (k×n, or n×k when
/// transposed). `beta` must be 0 (overwrite C) or 1 (accumulate into C).
/// `workspace` must hold gemm_workspace_floats(m, n, k) floats, or be null
/// to use an internal thread-local buffer (no steady-state allocation).
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
          bool trans_b, float beta, float* c, std::size_t ldc,
          float* workspace = nullptr);

/// gemm() forced onto a specific ISA level (must be available). The
/// dispatch-arm property tests and BM_GemmKernel use this; production code
/// goes through gemm(), which uses active_gemm_isa().
void gemm_with_isa(GemmIsa isa, std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t lda, bool trans_a,
                   const float* b, std::size_t ldb, bool trans_b, float beta,
                   float* c, std::size_t ldc, float* workspace = nullptr);

/// Largest m gemm_rows() accepts (it runs exclusively on the strided no-pack
/// kernels, which only pay off for short-m problems).
std::size_t gemm_rows_max_m();

/// C(m×n) = A·B + beta·C where B is given as k row pointers: row p of B is
/// the n floats at b_rows[p]. Rows may alias or overlap arbitrarily — conv
/// layers point them at shifted windows of one zero-padded image plane,
/// turning im2col into pure pointer arithmetic. Requires m ≤
/// gemm_rows_max_m(); needs no workspace. The accumulation order per C entry
/// matches gemm() exactly (same KC blocking, same kernel chain), so a conv
/// computed through gemm_rows() is bitwise-identical to the same conv
/// computed through im2col + gemm().
void gemm_rows(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* const* b_rows, float beta,
               float* c, std::size_t ldc);

/// gemm_rows() forced onto a specific ISA level (must be available).
void gemm_rows_with_isa(GemmIsa isa, std::size_t m, std::size_t n,
                        std::size_t k, const float* a, std::size_t lda,
                        const float* const* b_rows, float beta, float* c,
                        std::size_t ldc);

}  // namespace eugene::tensor
