#include "tensor/ops.hpp"

#include <algorithm>
#include <cstring>

namespace eugene::tensor {
namespace {

void require_matrix(const Tensor& t, const char* name) {
  EUGENE_REQUIRE(t.rank() == 2, std::string(name) + ": expected rank-2 tensor, got " +
                                    shape_to_string(t.shape()));
}

void require_out_shape(const Tensor& out, std::size_t m, std::size_t n,
                       const char* name) {
  EUGENE_REQUIRE(out.rank() == 2 && out.dim(0) == m && out.dim(1) == n,
                 std::string(name) + ": output tensor has the wrong shape");
}

}  // namespace

// The matmul family delegates to the tiled GEMM core (gemm.hpp). Note the
// old scalar loops' `if (a == 0.0f) continue;` fast path is gone for good:
// it silently turned 0·NaN / 0·inf into 0 (Matmul.NaNInfPropagation pins
// the IEEE behavior) and mispredicted once per inner iteration on dense
// data.

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 float* workspace) {
  require_matrix(a, "matmul a");
  require_matrix(b, "matmul b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  EUGENE_REQUIRE(b.dim(0) == k, "matmul: inner dimensions disagree");
  require_out_shape(out, m, n, "matmul_into");
  gemm(m, n, k, a.raw(), k, false, b.raw(), n, false, 0.0f, out.raw(), n,
       workspace);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul a");
  require_matrix(b, "matmul b");
  Tensor c({a.dim(0), b.dim(1)});
  matmul_into(a, b, c);
  return c;
}

void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out,
                             float* workspace) {
  require_matrix(a, "matmul_transpose_a a");
  require_matrix(b, "matmul_transpose_a b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  EUGENE_REQUIRE(b.dim(0) == k, "matmul_transpose_a: inner dimensions disagree");
  require_out_shape(out, m, n, "matmul_transpose_a_into");
  gemm(m, n, k, a.raw(), m, true, b.raw(), n, false, 0.0f, out.raw(), n,
       workspace);
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_a a");
  require_matrix(b, "matmul_transpose_a b");
  Tensor c({a.dim(1), b.dim(1)});
  matmul_transpose_a_into(a, b, c);
  return c;
}

void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out,
                             float* workspace) {
  require_matrix(a, "matmul_transpose_b a");
  require_matrix(b, "matmul_transpose_b b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  EUGENE_REQUIRE(b.dim(1) == k, "matmul_transpose_b: inner dimensions disagree");
  require_out_shape(out, m, n, "matmul_transpose_b_into");
  gemm(m, n, k, a.raw(), k, false, b.raw(), k, true, 0.0f, out.raw(), n,
       workspace);
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b a");
  require_matrix(b, "matmul_transpose_b b");
  Tensor c({a.dim(0), b.dim(0)});
  matmul_transpose_b_into(a, b, c);
  return c;
}

void im2col_into(const float* image_chw, const Conv2dGeometry& g, float* cols) {
  const std::size_t oh = g.out_height(), ow = g.out_width();
  const std::size_t ohw = oh * ow;
  const long long ih = static_cast<long long>(g.in_height);
  const long long iw = static_cast<long long>(g.in_width);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image_chw + c * g.in_height * g.in_width;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        const std::size_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* dst = cols + row * ohw;
        if (g.stride == 1) {
          // All bounds are loop-invariant at stride 1 (signed: padded
          // coordinates can be negative): rows oy ∈ [lo_y, hi_y) read image
          // row oy+dy, columns ox ∈ [lo, hi) read column ox+dx; everything
          // outside is padding, zero-filled in bulk.
          const long long dy = static_cast<long long>(ky) -
                               static_cast<long long>(g.padding);
          const long long dx = static_cast<long long>(kx) -
                               static_cast<long long>(g.padding);
          const long long ohs = static_cast<long long>(oh);
          const long long ows = static_cast<long long>(ow);
          const long long lo_y = std::min(ohs, std::max<long long>(0, -dy));
          const long long hi_y = std::max(lo_y, std::min(ohs, ih - dy));
          const long long lo = std::min(ows, std::max<long long>(0, -dx));
          const long long hi = std::max(lo, std::min(ows, iw - dx));
          std::fill_n(dst, static_cast<std::size_t>(lo_y) * ow, 0.0f);
          std::fill_n(dst + hi_y * ows, static_cast<std::size_t>(ohs - hi_y) * ow,
                      0.0f);
          const float* src = plane + (lo_y + dy) * iw + lo + dx;
          float* d = dst + lo_y * ows;
          if (dx == 0 && lo == 0 && hi == ows && ows == iw) {
            // Horizontally aligned same-width rows: source and destination
            // are both contiguous across rows — one copy for the whole band.
            std::memcpy(d, src,
                        static_cast<std::size_t>(hi_y - lo_y) * ow * sizeof(float));
          } else if (hi - lo > 16) {
            for (long long oy = lo_y; oy < hi_y; ++oy, d += ows, src += iw) {
              for (long long x = 0; x < lo; ++x) d[x] = 0.0f;
              std::memcpy(d + lo, src,
                          static_cast<std::size_t>(hi - lo) * sizeof(float));
              for (long long x = hi; x < ows; ++x) d[x] = 0.0f;
            }
          } else {
            // Short rows: an out-of-line memcpy call costs more than the
            // copy itself (small feature maps hit this ~1k times per conv).
            for (long long oy = lo_y; oy < hi_y; ++oy, d += ows, src += iw) {
              for (long long x = 0; x < lo; ++x) d[x] = 0.0f;
              for (long long x = 0; x < hi - lo; ++x) d[lo + x] = src[x];
              for (long long x = hi; x < ows; ++x) d[x] = 0.0f;
            }
          }
        } else {
          for (std::size_t oy = 0; oy < oh; ++oy, dst += ow) {
            const long long iy = static_cast<long long>(oy * g.stride + ky) -
                                 static_cast<long long>(g.padding);
            if (iy < 0 || iy >= ih) {
              std::fill_n(dst, ow, 0.0f);
              continue;
            }
            const float* srow =
                plane + static_cast<std::size_t>(iy) * g.in_width;
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                   static_cast<long long>(g.padding);
              dst[ox] = (ix >= 0 && ix < iw)
                            ? srow[static_cast<std::size_t>(ix)]
                            : 0.0f;
            }
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image_chw, const Conv2dGeometry& g) {
  EUGENE_REQUIRE(image_chw.rank() == 3, "im2col: expected CHW image");
  EUGENE_REQUIRE(image_chw.dim(0) == g.in_channels && image_chw.dim(1) == g.in_height &&
                     image_chw.dim(2) == g.in_width,
                 "im2col: image does not match geometry");
  Tensor cols({g.in_channels * g.kernel * g.kernel, g.out_height() * g.out_width()});
  im2col_into(image_chw.raw(), g, cols.raw());
  return cols;
}

Tensor col2im(const Tensor& cols, const Conv2dGeometry& g) {
  const std::size_t oh = g.out_height(), ow = g.out_width();
  const std::size_t patch = g.in_channels * g.kernel * g.kernel;
  EUGENE_REQUIRE(cols.rank() == 2 && cols.dim(0) == patch && cols.dim(1) == oh * ow,
                 "col2im: cols shape does not match geometry");
  Tensor image({g.in_channels, g.in_height, g.in_width});
  const float* src = cols.raw();
  float* img = image.raw();
  const std::size_t hw = g.in_height * g.in_width;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        const std::size_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* srow = src + row * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long long iy = static_cast<long long>(oy * g.stride + ky) -
                               static_cast<long long>(g.padding);
          if (iy < 0 || iy >= static_cast<long long>(g.in_height)) continue;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                 static_cast<long long>(g.padding);
            if (ix < 0 || ix >= static_cast<long long>(g.in_width)) continue;
            img[c * hw + static_cast<std::size_t>(iy) * g.in_width +
                static_cast<std::size_t>(ix)] += srow[oy * ow + ox];
          }
        }
      }
    }
  }
  return image;
}

Tensor conv2d(const Tensor& image_chw, const Tensor& weights, const Tensor& bias,
              const Conv2dGeometry& g) {
  const std::size_t patch = g.in_channels * g.kernel * g.kernel;
  EUGENE_REQUIRE(weights.rank() == 2 && weights.dim(0) == g.out_channels &&
                     weights.dim(1) == patch,
                 "conv2d: weights shape mismatch");
  EUGENE_REQUIRE(bias.rank() == 1 && bias.dim(0) == g.out_channels,
                 "conv2d: bias shape mismatch");
  const Tensor cols = im2col(image_chw, g);
  Tensor out = matmul(weights, cols);
  const std::size_t oh = g.out_height(), ow = g.out_width();
  float* op = out.raw();
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    const float b = bias.at(oc);
    for (std::size_t i = 0; i < oh * ow; ++i) op[oc * oh * ow + i] += b;
  }
  return out.reshaped({g.out_channels, oh, ow});
}

Tensor conv2d_direct(const Tensor& image_chw, const Tensor& weights, const Tensor& bias,
                     const Conv2dGeometry& g) {
  const std::size_t patch = g.in_channels * g.kernel * g.kernel;
  EUGENE_REQUIRE(weights.rank() == 2 && weights.dim(0) == g.out_channels &&
                     weights.dim(1) == patch,
                 "conv2d_direct: weights shape mismatch");
  const std::size_t oh = g.out_height(), ow = g.out_width();
  Tensor out({g.out_channels, oh, ow});
  const float* img = image_chw.raw();
  const std::size_t hw = g.in_height * g.in_width;
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    const float* wrow = weights.raw() + oc * patch;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = bias.at(oc);
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const long long iy = static_cast<long long>(oy * g.stride + ky) -
                                 static_cast<long long>(g.padding);
            if (iy < 0 || iy >= static_cast<long long>(g.in_height)) continue;
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                   static_cast<long long>(g.padding);
              if (ix < 0 || ix >= static_cast<long long>(g.in_width)) continue;
              acc += wrow[(c * g.kernel + ky) * g.kernel + kx] *
                     img[c * hw + static_cast<std::size_t>(iy) * g.in_width +
                         static_cast<std::size_t>(ix)];
            }
          }
        }
        out.at(oc, oy, ox) = acc;
      }
    }
  }
  return out;
}

Tensor max_pool2(const Tensor& image_chw) {
  EUGENE_REQUIRE(image_chw.rank() == 3, "max_pool2: expected CHW image");
  const std::size_t c = image_chw.dim(0);
  const std::size_t oh = image_chw.dim(1) / 2;
  const std::size_t ow = image_chw.dim(2) / 2;
  EUGENE_REQUIRE(oh > 0 && ow > 0, "max_pool2: image too small");
  Tensor out({c, oh, ow});
  for (std::size_t ch = 0; ch < c; ++ch)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x)
        out.at(ch, y, x) = std::max(
            std::max(image_chw.at(ch, 2 * y, 2 * x), image_chw.at(ch, 2 * y, 2 * x + 1)),
            std::max(image_chw.at(ch, 2 * y + 1, 2 * x),
                     image_chw.at(ch, 2 * y + 1, 2 * x + 1)));
  return out;
}

Tensor global_avg_pool(const Tensor& image_chw) {
  EUGENE_REQUIRE(image_chw.rank() == 3, "global_avg_pool: expected CHW image");
  const std::size_t c = image_chw.dim(0);
  const std::size_t hw = image_chw.dim(1) * image_chw.dim(2);
  EUGENE_REQUIRE(hw > 0, "global_avg_pool: empty image plane");
  Tensor out({c});
  const float* img = image_chw.raw();
  for (std::size_t ch = 0; ch < c; ++ch) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += img[ch * hw + i];
    out.at(ch) = acc / static_cast<float>(hw);
  }
  return out;
}

}  // namespace eugene::tensor
