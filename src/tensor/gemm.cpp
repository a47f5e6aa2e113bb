// GEMM driver: KC blocking, register tiles over A and B in place, ISA
// dispatch.
//
// Loop structure (single-threaded): for pc over k in KC rows (beta applies
// on the first block), for each nr-wide column strip, run the ISA's mr×nr
// tile down the rows of A. A and B are read where they lie; a transposed
// operand is first copied row-major into a grow-once thread-local buffer.
// gemm_rows() takes the same path with B given as row pointers.
//
// The accumulation order over k for any C entry depends only on k and KC —
// not on m, n, transposition or the B source — so inference, whichever conv
// route it takes, produces activations bit-identical to the training
// forward (the BatchedForward.* equivalence tests rely on this).
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "tensor/gemm_kernel.hpp"

namespace eugene::tensor {

namespace {

using detail::KernelInfo;

// KC = 256 keeps a tile's B strip (KC rows × 16 floats) at 16 KiB.
constexpr std::size_t kKc = 256;

KernelInfo kernel_for(GemmIsa isa) {
  return isa == GemmIsa::kAvx2 ? detail::avx2_kernel() : detail::scalar_kernel();
}

void run_tile(const KernelInfo& kern, std::size_t rows, std::size_t kc,
              const float* a, std::size_t lda, detail::StridedB b, float* c,
              std::size_t ldc, float beta) {
  kern.direct(rows, kc, a, lda, b, c, ldc, beta);
}

void run_tile(const KernelInfo& kern, std::size_t rows, std::size_t kc,
              const float* a, std::size_t lda, detail::GatheredB b, float* c,
              std::size_t ldc, float beta) {
  kern.gather(rows, kc, a, lda, b, c, ldc, beta);
}

/// The driver, over B read in place (strided, or through folded row
/// pointers), with KC blocking (block_beta between k blocks).
template <class B>
void gemm_in_place(const KernelInfo& kern, std::size_t m, std::size_t n,
                   std::size_t k, const float* a, std::size_t lda, B b,
                   float beta, float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 && beta == 0.0f)
    for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0f);
  const std::size_t mr = kern.mr;
  const std::size_t nr = kern.nr;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    const float block_beta = pc == 0 ? beta : 1.0f;
    const float* ablk = a + pc;
    std::size_t jr = 0;
    for (; jr + nr <= n; jr += nr) {
      const auto bstrip = b.at(pc, jr);
      for (std::size_t ir = 0; ir < m; ir += mr)
        run_tile(kern, std::min(mr, m - ir), kc, ablk + ir * lda, lda, bstrip,
                 c + ir * ldc + jr, ldc, block_beta);
    }
    if (jr < n) {
      // n tail: zero-pad the trailing columns into one nr-wide strip so the
      // kernels still run full width, then merge only the live columns via a
      // local tile.
      const std::size_t cols = n - jr;
      float btail[kKc * detail::kMaxNr];
      const auto bblk = b.at(pc, jr);
      for (std::size_t p = 0; p < kc; ++p) {
        float* d = btail + p * nr;
        for (std::size_t j = 0; j < cols; ++j)
          d[j] = j < 8 ? bblk.row(p)[j] : bblk.row_hi(p)[j - 8];
        for (std::size_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
      float tile[detail::kMaxMr * detail::kMaxNr];
      for (std::size_t ir = 0; ir < m; ir += mr) {
        const std::size_t rows = std::min(mr, m - ir);
        kern.direct(rows, kc, ablk + ir * lda, lda, {btail, nr}, tile, nr,
                    0.0f);
        float* cblk = c + ir * ldc + jr;
        if (block_beta == 0.0f) {
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t j = 0; j < cols; ++j)
              cblk[r * ldc + j] = tile[r * nr + j];
        } else {
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t j = 0; j < cols; ++j)
              cblk[r * ldc + j] += tile[r * nr + j];
        }
      }
    }
  }
}

GemmIsa resolve_active_isa() {
  GemmIsa isa =
      detail::avx2_fma_supported() ? GemmIsa::kAvx2 : GemmIsa::kScalar;
  if (const char* env = std::getenv("EUGENE_GEMM_ISA")) {
    const std::optional<GemmIsa> forced = parse_gemm_isa(env);
    if (!forced.has_value()) {
      EUGENE_LOG(Warn) << "gemm: unrecognized EUGENE_GEMM_ISA value '" << env
                       << "'; using " << gemm_isa_name(isa);
    } else if (!gemm_isa_available(*forced)) {
      EUGENE_LOG(Warn) << "gemm: EUGENE_GEMM_ISA=" << gemm_isa_name(*forced)
                       << " not supported on this CPU; using "
                       << gemm_isa_name(isa);
    } else {
      isa = *forced;
    }
  }
  EUGENE_LOG(Debug) << "gemm: micro-kernel ISA resolved to "
                    << gemm_isa_name(isa);
  return isa;
}

}  // namespace

const char* gemm_isa_name(GemmIsa isa) {
  return isa == GemmIsa::kAvx2 ? "avx2" : "scalar";
}

bool gemm_isa_available(GemmIsa isa) {
  return isa == GemmIsa::kScalar || detail::avx2_fma_supported();
}

std::optional<GemmIsa> parse_gemm_isa(const char* text) {
  if (text == nullptr) return std::nullopt;
  std::string v(text);
  for (char& c : v)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  if (v == "scalar") return GemmIsa::kScalar;
  if (v == "avx2") return GemmIsa::kAvx2;
  return std::nullopt;
}

GemmIsa active_gemm_isa() {
  static const GemmIsa isa = resolve_active_isa();
  return isa;
}

void gemm_with_isa(GemmIsa isa, std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t lda, bool trans_a,
                   const float* b, std::size_t ldb, bool trans_b, float beta,
                   float* c, std::size_t ldc) {
  EUGENE_REQUIRE(beta == 0.0f || beta == 1.0f, "gemm: beta must be 0 or 1");
  EUGENE_REQUIRE(gemm_isa_available(isa), "gemm: requested ISA unavailable");
  if (trans_a || trans_b) {
    // The tiles read A and B row-major, so a transposed operand is copied
    // into a grow-once thread-local buffer: no allocation in steady state.
    thread_local std::vector<float> tl_copy;
    const std::size_t a_floats = trans_a ? m * k : 0;
    const std::size_t need = a_floats + (trans_b ? k * n : 0);
    if (tl_copy.size() < need) tl_copy.resize(need);
    if (trans_a) {
      float* at = tl_copy.data();
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t i = 0; i < m; ++i) at[i * k + p] = a[p * lda + i];
      a = at;
      lda = k;
    }
    if (trans_b) {
      float* bt = tl_copy.data() + a_floats;
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < n; ++j) bt[p * n + j] = b[j * ldb + p];
      b = bt;
      ldb = n;
    }
  }
  gemm_in_place(kernel_for(isa), m, n, k, a, lda, detail::StridedB{b, ldb},
                beta, c, ldc);
}

void gemm_rows_with_isa(GemmIsa isa, std::size_t m, std::size_t n,
                        std::size_t k, const float* a, std::size_t lda,
                        const float* const* b_rows, std::size_t fold_width,
                        std::size_t fold_pitch, float beta, float* c,
                        std::size_t ldc) {
  EUGENE_REQUIRE(beta == 0.0f || beta == 1.0f,
                 "gemm_rows: beta must be 0 or 1");
  EUGENE_REQUIRE(gemm_isa_available(isa),
                 "gemm_rows: requested ISA unavailable");
  EUGENE_REQUIRE(fold_width >= n || (fold_width > 0 && fold_width % 8 == 0),
                 "gemm_rows: fold_width must be a multiple of 8 or >= n");
  gemm_in_place(kernel_for(isa), m, n, k, a, lda,
                detail::FoldedB{b_rows, fold_width, fold_pitch}, beta, c, ldc);
}

void gemm_rows(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* const* b_rows,
               std::size_t fold_width, std::size_t fold_pitch, float beta,
               float* c, std::size_t ldc) {
  gemm_rows_with_isa(active_gemm_isa(), m, n, k, a, lda, b_rows, fold_width,
                     fold_pitch, beta, c, ldc);
}

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
          bool trans_b, float beta, float* c, std::size_t ldc) {
  gemm_with_isa(active_gemm_isa(), m, n, k, a, lda, trans_a, b, ldb, trans_b,
                beta, c, ldc);
}

}  // namespace eugene::tensor
