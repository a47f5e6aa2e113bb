// Blocked GEMM driver: packing, cache blocking, edge tiles, ISA dispatch.
//
// Loop structure (BLIS-style, single-threaded):
//   for jc over n in NC columns            — B panel fits L3/L2
//     for pc over k in KC rows             — beta applies on the first block
//       pack B(pc:pc+kc, jc:jc+nc) into nr-wide zero-padded column panels
//       for ic over m in MC rows           — A panel fits L2/L1
//         pack A(ic:ic+mc, pc:pc+kc) into mr-tall zero-padded row panels
//         micro-kernel per (mr × nr) tile; partial tiles go through a local
//         buffer so the kernel itself never branches on edges
//
// Short-m problems (m <= kDirectMaxM, no transposes) skip packing entirely
// and run strided kernels over A/B in place — see gemm_direct below.
//
// The accumulation order over k for any C entry depends only on k and KC —
// not on m, n, the ISA tile shape, transposition, or the packed/direct path
// choice — so inference, whichever conv route and kernel family it takes,
// produces activations bit-identical to the training forward (the
// BatchedForward.* equivalence tests rely on this).
#include "tensor/gemm.hpp"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "tensor/gemm_kernel.hpp"

namespace eugene::tensor {

namespace {

using detail::KernelInfo;

// Cache blocking: KC·NR B-panel strips and MC·KC A panels sized for typical
// L1/L2 (float): KC=256 keeps an A panel at 96 KiB and a B strip at 16 KiB.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 96;
constexpr std::size_t kNc = 1024;

std::size_t round_up(std::size_t x, std::size_t unit) {
  return (x + unit - 1) / unit * unit;
}

/// Packs A(ic:ic+mc, pc:pc+kc) — logical indices, transposition resolved
/// here — into mr-tall panels: ap[(ir/mr)·kc·mr + p·mr + r]. Rows past mc
/// are zero (padding in m only, never in k).
void pack_a(const float* a, std::size_t lda, bool trans_a, std::size_t ic,
            std::size_t mc, std::size_t pc, std::size_t kc, std::size_t mr,
            float* ap) {
  for (std::size_t ir = 0; ir < mc; ir += mr) {
    const std::size_t rows = std::min(mr, mc - ir);
    float* dst = ap + (ir / mr) * kc * mr;
    if (!trans_a) {
      for (std::size_t p = 0; p < kc; ++p) {
        float* d = dst + p * mr;
        for (std::size_t r = 0; r < rows; ++r)
          d[r] = a[(ic + ir + r) * lda + pc + p];
        for (std::size_t r = rows; r < mr; ++r) d[r] = 0.0f;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* arow = a + (pc + p) * lda + ic + ir;
        float* d = dst + p * mr;
        for (std::size_t r = 0; r < rows; ++r) d[r] = arow[r];
        for (std::size_t r = rows; r < mr; ++r) d[r] = 0.0f;
      }
    }
  }
}

/// Packs B(pc:pc+kc, jc:jc+nc) into nr-wide panels: bp[(jr/nr)·kc·nr +
/// p·nr + j]. Columns past nc are zero.
void pack_b(const float* b, std::size_t ldb, bool trans_b, std::size_t pc,
            std::size_t kc, std::size_t jc, std::size_t nc, std::size_t nr,
            float* bp) {
  for (std::size_t jr = 0; jr < nc; jr += nr) {
    const std::size_t cols = std::min(nr, nc - jr);
    float* dst = bp + (jr / nr) * kc * nr;
    if (!trans_b) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = b + (pc + p) * ldb + jc + jr;
        float* d = dst + p * nr;
        for (std::size_t j = 0; j < cols; ++j) d[j] = brow[j];
        for (std::size_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        float* d = dst + p * nr;
        for (std::size_t j = 0; j < cols; ++j)
          d[j] = b[(jc + jr + j) * ldb + pc + p];
        for (std::size_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
    }
  }
}

KernelInfo kernel_for(GemmIsa isa) {
  return isa == GemmIsa::kAvx2 ? detail::avx2_kernel() : detail::scalar_kernel();
}

// Short-m problems run the strided no-pack kernels instead of the blocked
// path: with only a handful of C rows, repacking A and B costs more than the
// multiply itself (the per-sample conv/dense GEMMs of a staged model are all
// in this regime). 48 keeps every stage of the default models on this path
// while large square matmuls stay on the packed path, whose cache blocking
// wins from ~2·kMc rows up.
constexpr std::size_t kDirectMaxM = 48;

/// The no-pack driver. Keeps the packed path's KC blocking (block_beta
/// between k blocks) and per-element accumulation chain, so results are
/// bitwise-identical to the packed path at every size — only the data
/// movement differs.
void gemm_direct(const KernelInfo& kern, std::size_t m, std::size_t n,
                 std::size_t k, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float beta, float* c,
                 std::size_t ldc) {
  const std::size_t mr = kern.mr;
  const std::size_t nr = kern.nr;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    const float block_beta = pc == 0 ? beta : 1.0f;
    const float* ablk = a + pc;
    const float* bblk = b + pc * ldb;
    std::size_t jr = 0;
    for (; jr + nr <= n; jr += nr) {
      std::size_t ir = 0;
      for (; ir + mr <= m; ir += mr)
        kern.direct(kc, ablk + ir * lda, lda, bblk + jr, ldb,
                    c + ir * ldc + jr, ldc, block_beta);
      if (ir < m)
        kern.direct_edge(m - ir, kc, ablk + ir * lda, lda, bblk + jr, ldb,
                         c + ir * ldc + jr, ldc, block_beta);
    }
    if (jr < n) {
      // n tail: zero-pad the trailing columns into one nr-wide strip so the
      // kernels still run full width, then merge only the live columns via a
      // local tile — the same merge the packed path uses for partial tiles.
      const std::size_t cols = n - jr;
      float btail[kKc * detail::kMaxNr];
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = bblk + p * ldb + jr;
        float* d = btail + p * nr;
        for (std::size_t j = 0; j < cols; ++j) d[j] = brow[j];
        for (std::size_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
      float tile[detail::kMaxMr * detail::kMaxNr];
      for (std::size_t ir = 0; ir < m; ir += mr) {
        const std::size_t rows = std::min(mr, m - ir);
        if (rows == mr)
          kern.direct(kc, ablk + ir * lda, lda, btail, nr, tile, nr, 0.0f);
        else
          kern.direct_edge(rows, kc, ablk + ir * lda, lda, btail, nr, tile,
                           nr, 0.0f);
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

/// Row-pointer analogue of gemm_direct: B row p lives at b_rows[p]. Same KC
/// blocking and kernel chain, so C entries stay bitwise-identical to the
/// packed and strided paths.
void gemm_gather(const KernelInfo& kern, std::size_t m, std::size_t n,
                 std::size_t k, const float* a, std::size_t lda,
                 const float* const* b_rows, float beta, float* c,
                 std::size_t ldc) {
  const std::size_t mr = kern.mr;
  const std::size_t nr = kern.nr;
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    const float block_beta = pc == 0 ? beta : 1.0f;
    const float* ablk = a + pc;
    const float* const* brows = b_rows + pc;
    std::size_t jr = 0;
    for (; jr + nr <= n; jr += nr) {
      std::size_t ir = 0;
      for (; ir + mr <= m; ir += mr)
        kern.gather(kc, ablk + ir * lda, lda, brows, jr, c + ir * ldc + jr,
                    ldc, block_beta);
      if (ir < m)
        kern.gather_edge(m - ir, kc, ablk + ir * lda, lda, brows, jr,
                         c + ir * ldc + jr, ldc, block_beta);
    }
    if (jr < n) {
      // n tail: same zero-padded strip + local-tile merge as gemm_direct.
      const std::size_t cols = n - jr;
      float btail[kKc * detail::kMaxNr];
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = brows[p] + jr;
        float* d = btail + p * nr;
        for (std::size_t j = 0; j < cols; ++j) d[j] = brow[j];
        for (std::size_t j = cols; j < nr; ++j) d[j] = 0.0f;
      }
      float tile[detail::kMaxMr * detail::kMaxNr];
      for (std::size_t ir = 0; ir < m; ir += mr) {
        const std::size_t rows = std::min(mr, m - ir);
        if (rows == mr)
          kern.direct(kc, ablk + ir * lda, lda, btail, nr, tile, nr, 0.0f);
        else
          kern.direct_edge(rows, kc, ablk + ir * lda, lda, btail, nr, tile,
                           nr, 0.0f);
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

std::size_t gemm_workspace_floats(std::size_t m, std::size_t n,
                                  std::size_t k) {
  if (m == 0 || n == 0 || k == 0) return 0;
  const std::size_t b_panel =
      kKc * round_up(std::min(n, kNc), detail::kMaxNr);
  const std::size_t a_panel = kKc * round_up(std::min(m, kMc), detail::kMaxMr);
  return b_panel + a_panel;
}

void gemm_with_isa(GemmIsa isa, std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t lda, bool trans_a,
                   const float* b, std::size_t ldb, bool trans_b, float beta,
                   float* c, std::size_t ldc, float* workspace) {
  EUGENE_REQUIRE(beta == 0.0f || beta == 1.0f, "gemm: beta must be 0 or 1");
  EUGENE_REQUIRE(gemm_isa_available(isa), "gemm: requested ISA unavailable");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (beta == 0.0f)
      for (std::size_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }

  const KernelInfo kern = kernel_for(isa);
  if (!trans_a && !trans_b && m <= kDirectMaxM) {
    gemm_direct(kern, m, n, k, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  float* ws = workspace;
  if (ws == nullptr) {
    // Grow-once thread-local fallback for callers without an arena (the
    // legacy matmul wrappers): no allocation in steady state.
    thread_local std::vector<float> tl_ws;
    const std::size_t need = gemm_workspace_floats(m, n, k);
    if (tl_ws.size() < need) tl_ws.resize(need);
    ws = tl_ws.data();
  }

  const std::size_t mr = kern.mr;
  const std::size_t nr = kern.nr;
  float* bp = ws;
  float* ap = ws + kKc * round_up(std::min(n, kNc), detail::kMaxNr);

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const float block_beta = pc == 0 ? beta : 1.0f;
      pack_b(b, ldb, trans_b, pc, kc, jc, nc, nr, bp);
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        pack_a(a, lda, trans_a, ic, mc, pc, kc, mr, ap);
        for (std::size_t jr = 0; jr < nc; jr += nr) {
          const std::size_t nr_eff = std::min(nr, nc - jr);
          const float* b_panel = bp + (jr / nr) * kc * nr;
          for (std::size_t ir = 0; ir < mc; ir += mr) {
            const std::size_t mr_eff = std::min(mr, mc - ir);
            const float* a_panel = ap + (ir / mr) * kc * mr;
            float* cblk = c + (ic + ir) * ldc + jc + jr;
            if (mr_eff == mr && nr_eff == nr) {
              kern.kernel(kc, a_panel, b_panel, cblk, ldc, block_beta);
            } else {
              // Partial tile: compute the full tile into a local buffer,
              // then merge only the live rows/columns.
              float tile[detail::kMaxMr * detail::kMaxNr];
              kern.kernel(kc, a_panel, b_panel, tile, nr, 0.0f);
              if (block_beta == 0.0f) {
                for (std::size_t r = 0; r < mr_eff; ++r)
                  for (std::size_t j = 0; j < nr_eff; ++j)
                    cblk[r * ldc + j] = tile[r * nr + j];
              } else {
                for (std::size_t r = 0; r < mr_eff; ++r)
                  for (std::size_t j = 0; j < nr_eff; ++j)
                    cblk[r * ldc + j] += tile[r * nr + j];
              }
            }
          }
        }
      }
    }
  }
}

std::size_t gemm_rows_max_m() { return kDirectMaxM; }

void gemm_rows_with_isa(GemmIsa isa, std::size_t m, std::size_t n,
                        std::size_t k, const float* a, std::size_t lda,
                        const float* const* b_rows, float beta, float* c,
                        std::size_t ldc) {
  EUGENE_REQUIRE(beta == 0.0f || beta == 1.0f,
                 "gemm_rows: beta must be 0 or 1");
  EUGENE_REQUIRE(gemm_isa_available(isa),
                 "gemm_rows: requested ISA unavailable");
  EUGENE_REQUIRE(m <= kDirectMaxM, "gemm_rows: m exceeds gemm_rows_max_m()");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (beta == 0.0f)
      for (std::size_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }
  gemm_gather(kernel_for(isa), m, n, k, a, lda, b_rows, beta, c, ldc);
}

void gemm_rows(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* const* b_rows, float beta,
               float* c, std::size_t ldc) {
  gemm_rows_with_isa(active_gemm_isa(), m, n, k, a, lda, b_rows, beta, c,
                     ldc);
}

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
          bool trans_b, float beta, float* c, std::size_t ldc,
          float* workspace) {
  gemm_with_isa(active_gemm_isa(), m, n, k, a, lda, trans_a, b, ldb, trans_b,
                beta, c, ldc, workspace);
}

}  // namespace eugene::tensor
