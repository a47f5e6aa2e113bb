// Unit tests for the tensor substrate: shapes, kernels, and linear algebra.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace eugene::tensor {
namespace {

TEST(TensorShape, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  Tensor t({4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, DataAdoption) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), InvalidArgument);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(2, 0), InvalidArgument);
  EXPECT_THROW(t.at(0), InvalidArgument);  // rank mismatch
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), InvalidArgument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  a += b;
  EXPECT_EQ(a.at(2), 9.0f);
  a -= b;
  EXPECT_EQ(a.at(0), 1.0f);
  a *= 2.0f;
  EXPECT_EQ(a.at(1), 4.0f);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng r1(7), r2(7);
  const Tensor a = Tensor::randn({8}, r1);
  const Tensor b = Tensor::randn({8}, r2);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(Matmul, MatchesHandComputation) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 2});
  EXPECT_THROW(matmul(a, b), InvalidArgument);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(3);
  const Tensor a = Tensor::randn({4, 5}, rng);
  const Tensor b = Tensor::randn({5, 6}, rng);
  const Tensor c = matmul(a, b);

  // Aᵀ variant: pass A already transposed.
  Tensor at({5, 4});
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  const Tensor c1 = matmul_transpose_a(at, b);

  // Bᵀ variant: pass B already transposed.
  Tensor bt({6, 5});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 6; ++j) bt.at(j, i) = b.at(i, j);
  const Tensor c2 = matmul_transpose_b(a, bt);

  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(c1.at(i, j), c.at(i, j), 1e-4);
      EXPECT_NEAR(c2.at(i, j), c.at(i, j), 1e-4);
    }
}

Conv2dGeometry small_geometry() {
  Conv2dGeometry g;
  g.in_channels = 3;
  g.out_channels = 4;
  g.in_height = 6;
  g.in_width = 5;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  return g;
}

TEST(Conv2d, GeometryOutputDims) {
  const Conv2dGeometry g = small_geometry();
  EXPECT_EQ(g.out_height(), 6u);
  EXPECT_EQ(g.out_width(), 5u);

  Conv2dGeometry strided = g;
  strided.stride = 2;
  EXPECT_EQ(strided.out_height(), 3u);
  EXPECT_EQ(strided.out_width(), 3u);
}

TEST(Conv2d, FlopsMatchesClosedForm) {
  const Conv2dGeometry g = small_geometry();
  // 2 · C_out · H_out · W_out · C_in · k²
  EXPECT_DOUBLE_EQ(g.flops(), 2.0 * 4 * 6 * 5 * 3 * 9);
}

TEST(Conv2d, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // the conv backward pass relies on.
  Rng rng(17);
  const Conv2dGeometry g = small_geometry();
  const Tensor x = Tensor::randn({3, 6, 5}, rng);
  const Tensor cols = im2col(x, g);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = col2im(y, g);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) lhs += cols.data()[i] * y.data()[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += x.data()[i] * back.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Pooling, GlobalAvgPool) {
  Tensor img({2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor out({2});
  plane_kernels().global_avg_pool(img.raw(), 2, 4, out.raw());
  EXPECT_FLOAT_EQ(out.at(0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(1), 10.0f);
}

TEST(Linalg, CholeskyReconstructs) {
  // A = B·Bᵀ + n·I is SPD.
  Rng rng(23);
  const std::size_t n = 6;
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor a({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < n; ++k) acc += b.at(i, k) * b.at(j, k);
      a.at(i, j) = acc + (i == j ? static_cast<float>(n) : 0.0f);
    }
  const Tensor l = cholesky(a);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < n; ++k) acc += l.at(i, k) * l.at(j, k);
      EXPECT_NEAR(acc, a.at(i, j), 1e-3);
    }
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 2, 1});  // eigenvalues 3, −1
  EXPECT_THROW(cholesky(a), InvalidArgument);
}

TEST(Linalg, SolveSpdRoundTrip) {
  Tensor a({3, 3}, std::vector<float>{4, 1, 0, 1, 3, 1, 0, 1, 2});
  const std::vector<double> x_true = {1.0, -2.0, 3.0};
  std::vector<double> b(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) b[i] += a.at(i, j) * x_true[j];
  const std::vector<double> x = solve_spd(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

TEST(Linalg, LeastSquaresRecoversLine) {
  // y = 2x + 1 with no noise.
  const std::size_t n = 20;
  Tensor x({n, 2});
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(i) / 10.0;
    x.at(i, 0) = 1.0f;
    x.at(i, 1) = static_cast<float>(xi);
    y[i] = 2.0 * xi + 1.0;
  }
  const std::vector<double> beta = least_squares(x, y);
  EXPECT_NEAR(beta[0], 1.0, 1e-4);
  EXPECT_NEAR(beta[1], 2.0, 1e-4);
}

TEST(Linalg, LeastSquaresConditioningOffsetData) {
  // Regression for the float-accumulated XᵀX bug: an offset regressor makes
  // the Gram matrix entries huge (~1e11) while the usable signal lives in a
  // catastrophic cancellation. Rounding the running sums to float on every
  // add (the old behaviour) loses the slope entirely; accumulating in double
  // and storing once keeps it.
  const std::size_t n = 512;
  const double offset = 16384.0;
  Tensor x({n, 2});
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = offset + static_cast<double>(i);
    x.at(i, 0) = 1.0f;
    x.at(i, 1) = static_cast<float>(t);
    y[i] = 2.0 + 0.001 * t;
  }
  const std::vector<double> beta = least_squares(x, y);
  EXPECT_NEAR(beta[1], 0.001, 1e-3 * 0.001)  // slope to 0.1% relative
      << "intercept=" << beta[0];
  EXPECT_NEAR(beta[0] + beta[1] * offset, 2.0 + 0.001 * offset, 1e-2)
      << "fitted line is off at the data's left edge";
}

// ------------------------------------------------------------------- GEMM

namespace {

/// Textbook triple loop with sequential-k float accumulation — the ordering
/// the GEMM core promises to reproduce for k ≤ its KC block.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  return c;
}

void expect_gemm_matches_naive(GemmIsa isa) {
  // Shapes straddling the micro-tile boundaries of every kernel (scalar 4×8,
  // AVX2 4×16): 1, tile−1, tile, tile+1, and a round cache-friendly size.
  // m also straddles the tile's multiples (12, 20) and runs large (128).
  const std::size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 128};
  const std::size_t ms[] = {1,  3,  4,  5,  6,  7,  8,  9,  12, 15,
                            16, 17, 20, 47, 48, 49, 128};
  Rng rng(7);
  for (std::size_t m : ms) {
    for (std::size_t n : sizes) {
      for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{128}}) {
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor want = naive_matmul(a, b);
        Tensor got({m, n});
        gemm_with_isa(isa, m, n, k, a.raw(), k, false, b.raw(), n, false,
                      0.0f, got.raw(), n);
        for (std::size_t i = 0; i < m * n; ++i) {
          // The scalar kernel sums in exactly the naive order; FMA keeps the
          // products unrounded, so allow a few ulps either way.
          EXPECT_NEAR(got.data()[i], want.data()[i],
                      2e-5f * std::max(1.0f, std::abs(want.data()[i])))
              << gemm_isa_name(isa) << " m=" << m << " n=" << n << " k=" << k
              << " at " << i;
        }
      }
    }
  }
}

}  // namespace

TEST(Gemm, ScalarMatchesNaiveOverOddShapes) {
  expect_gemm_matches_naive(GemmIsa::kScalar);
}

TEST(Gemm, Avx2MatchesNaiveOverOddShapes) {
  if (!gemm_isa_available(GemmIsa::kAvx2)) GTEST_SKIP() << "no AVX2/FMA here";
  expect_gemm_matches_naive(GemmIsa::kAvx2);
}

TEST(Gemm, TransposedOperandsMatchNaive) {
  Rng rng(11);
  const std::size_t m = 13, n = 21, k = 37;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor want = naive_matmul(a, b);
  // Aᵀ stored k×m, Bᵀ stored n×k.
  Tensor at({k, m}), bt({n, k});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p) at.at(p, i) = a.at(i, p);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);
  Tensor c1({m, n}), c2({m, n});
  gemm(m, n, k, at.raw(), m, true, b.raw(), n, false, 0.0f, c1.raw(), n);
  gemm(m, n, k, a.raw(), k, false, bt.raw(), k, true, 0.0f, c2.raw(), n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c1.data()[i], want.data()[i], 1e-4f) << "trans_a at " << i;
    EXPECT_NEAR(c2.data()[i], want.data()[i], 1e-4f) << "trans_b at " << i;
  }
}

TEST(Gemm, BetaOneAccumulatesIntoC) {
  Rng rng(12);
  const std::size_t m = 5, n = 9, k = 6;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor base = Tensor::randn({m, n}, rng);
  Tensor c = base;
  gemm(m, n, k, a.raw(), k, false, b.raw(), n, false, 1.0f, c.raw(), n);
  const Tensor prod = naive_matmul(a, b);
  for (std::size_t i = 0; i < m * n; ++i)
    EXPECT_NEAR(c.data()[i], base.data()[i] + prod.data()[i], 1e-4f) << i;
}

TEST(Gemm, ZeroTimesNanAndInfPropagate) {
  // The old matmul skipped a_ik == 0 rows as a fast path, silently turning
  // 0·NaN and 0·inf into 0. IEEE says both are NaN; the GEMM core must not
  // short-circuit them away, under either kernel.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2}) {
    if (!gemm_isa_available(isa)) continue;
    // k=2: row 0 of B is poisoned, row 0 of A is zero.
    const Tensor a({1, 2}, std::vector<float>{0.0f, 1.0f});
    const Tensor b({2, 2}, std::vector<float>{nan, inf, 2.0f, 3.0f});
    Tensor c({1, 2});
    gemm_with_isa(isa, 1, 2, 2, a.raw(), 2, false, b.raw(), 2, false, 0.0f,
                  c.raw(), 2);
    EXPECT_TRUE(std::isnan(c.at(0, 0)))
        << gemm_isa_name(isa) << ": 0*NaN must stay NaN";
    EXPECT_TRUE(std::isnan(c.at(0, 1)))
        << gemm_isa_name(isa) << ": 0*inf must be NaN";
  }
}

TEST(Gemm, MatmulPropagatesNanFromZeroRow) {
  // Same property through the public matmul wrapper used by the layers.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor a({1, 2}, std::vector<float>{0.0f, 1.0f});
  const Tensor b({2, 1}, std::vector<float>{nan, 5.0f});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
}

TEST(Gemm, EnvIsaParsing) {
  EXPECT_EQ(parse_gemm_isa("scalar"), GemmIsa::kScalar);
  EXPECT_EQ(parse_gemm_isa("avx2"), GemmIsa::kAvx2);
  EXPECT_EQ(parse_gemm_isa("AVX2"), GemmIsa::kAvx2);
  EXPECT_EQ(parse_gemm_isa("riscv-vector"), std::nullopt);
  EXPECT_EQ(parse_gemm_isa(nullptr), std::nullopt);
  EXPECT_TRUE(gemm_isa_available(GemmIsa::kScalar));
}

TEST(Gemm, DirectPathMatchesPackedBitwise) {
  // The accumulation chain per C entry depends only on k and the KC block,
  // never on the operand layout: a transposed A is copied row-major first,
  // so it must reproduce the strided direct path bit for bit. Pinned across
  // the tile's row edges (4 rows under both ISAs), the served conv channel
  // counts, larger m (47, 48, 64, 97), and the KC seam (k > 256), on every
  // available ISA.
  Rng rng(17);
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2}) {
    if (!gemm_isa_available(isa)) continue;
    for (std::size_t m : {1, 3, 4, 5, 8, 12, 16, 20, 32, 47, 48, 64, 97}) {
      for (std::size_t n : {1, 15, 16, 17, 100}) {
        for (std::size_t k : {1, 72, 300}) {
          const Tensor a = Tensor::randn({m, k}, rng);
          const Tensor b = Tensor::randn({k, n}, rng);
          Tensor at({k, m});
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t p = 0; p < k; ++p) at.at(p, i) = a.at(i, p);
          Tensor direct({m, n}), transposed({m, n});
          gemm_with_isa(isa, m, n, k, a.raw(), k, false, b.raw(), n, false,
                        0.0f, direct.raw(), n);
          gemm_with_isa(isa, m, n, k, at.raw(), m, true, b.raw(), n, false,
                        0.0f, transposed.raw(), n);
          for (std::size_t i = 0; i < m * n; ++i)
            ASSERT_EQ(direct.data()[i], transposed.data()[i])
                << gemm_isa_name(isa) << " m=" << m << " n=" << n
                << " k=" << k << " at " << i;
        }
      }
    }
  }
}

TEST(GemmRows, MatchesGemmBitwiseOverOddShapes) {
  // gemm_rows() promises the exact accumulation chain of gemm() — a conv
  // computed through row pointers must be bit-identical to the same conv
  // through im2col + gemm. Pin it bitwise across tile boundaries and across
  // the KC block seam (k > 256), on every available ISA.
  Rng rng(17);
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2}) {
    if (!gemm_isa_available(isa)) continue;
    for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                          std::size_t{12}, std::size_t{32}, std::size_t{48},
                          std::size_t{64}}) {
      for (std::size_t n :
           {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
            std::size_t{100}}) {
        for (std::size_t k :
             {std::size_t{1}, std::size_t{72}, std::size_t{300}}) {
          const Tensor a = Tensor::randn({m, k}, rng);
          const Tensor b = Tensor::randn({k, n}, rng);
          std::vector<const float*> rows(k);
          for (std::size_t p = 0; p < k; ++p) rows[p] = b.raw() + p * n;
          Tensor want({m, n}), got({m, n});
          gemm_with_isa(isa, m, n, k, a.raw(), k, false, b.raw(), n, false,
                        0.0f, want.raw(), n);
          gemm_rows_with_isa(isa, m, n, k, a.raw(), k, rows.data(), n, n,
                             0.0f, got.raw(), n);
          for (std::size_t i = 0; i < m * n; ++i)
            EXPECT_EQ(got.data()[i], want.data()[i])
                << gemm_isa_name(isa) << " m=" << m << " n=" << n
                << " k=" << k << " at " << i;
        }
      }
    }
  }
}

TEST(GemmRows, OverlappingRowsMatchMaterializedB) {
  // The conv fast path points the k row pointers at shifted windows of one
  // padded image, so consecutive rows overlap by all but one element, and
  // folds each row's columns onto the image's rows: here 8 columns per line
  // with a pitch of 11. Same result, bitwise, as materializing those
  // windows into a dense B, on every ISA and across the 16-wide tile's
  // column tail (n = 40).
  Rng rng(18);
  const std::size_t m = 6, n = 40, k = 30, width = 8, pitch = 11;
  const Tensor plane = Tensor::randn({k + (n / width) * pitch}, rng);
  const Tensor a = Tensor::randn({m, k}, rng);
  std::vector<const float*> rows(k);
  Tensor dense({k, n});
  for (std::size_t p = 0; p < k; ++p) {
    rows[p] = plane.raw() + p;
    for (std::size_t j = 0; j < n; ++j)
      dense.at(p, j) = rows[p][j / width * pitch + j % width];
  }
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2}) {
    if (!gemm_isa_available(isa)) continue;
    Tensor want({m, n}), got({m, n});
    gemm_with_isa(isa, m, n, k, a.raw(), k, false, dense.raw(), n, false,
                  0.0f, want.raw(), n);
    gemm_rows_with_isa(isa, m, n, k, a.raw(), k, rows.data(), width, pitch,
                       0.0f, got.raw(), n);
    for (std::size_t i = 0; i < m * n; ++i)
      EXPECT_EQ(got.data()[i], want.data()[i]) << gemm_isa_name(isa) << " " << i;
  }
}

TEST(GemmRows, BetaOneAccumulatesAndRejectsNarrowFold) {
  Rng rng(19);
  const std::size_t m = 4, n = 9, k = 12;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  std::vector<const float*> rows(k);
  for (std::size_t p = 0; p < k; ++p) rows[p] = b.raw() + p * n;
  const Tensor base = Tensor::randn({m, n}, rng);
  Tensor c = base;
  gemm_rows(m, n, k, a.raw(), k, rows.data(), n, n, 1.0f, c.raw(), n);
  const Tensor prod = naive_matmul(a, b);
  for (std::size_t i = 0; i < m * n; ++i)
    EXPECT_NEAR(c.data()[i], base.data()[i] + prod.data()[i], 1e-4f) << i;
  // A fold narrower than n must keep 8-column runs contiguous.
  EXPECT_THROW(gemm_rows(m, n, k, a.raw(), k, rows.data(), 4, 6, 0.0f,
                         c.raw(), n),
               eugene::Error);
}

}  // namespace
}  // namespace eugene::tensor
