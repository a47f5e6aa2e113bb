#include "tensor/ops.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/plane_kernel.hpp"

namespace eugene::tensor {
namespace {

void require_matrix(const Tensor& t, const char* name) {
  EUGENE_REQUIRE(t.rank() == 2, std::string(name) + ": expected rank-2 tensor, got " +
                                    shape_to_string(t.shape()));
}

}  // namespace

// The matmul family delegates to the tiled GEMM core (gemm.hpp). Note the
// old scalar loops' `if (a == 0.0f) continue;` fast path is gone for good:
// it silently turned 0·NaN / 0·inf into 0 (Matmul.NaNInfPropagation pins
// the IEEE behavior) and mispredicted once per inner iteration on dense
// data.

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul a");
  require_matrix(b, "matmul b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  EUGENE_REQUIRE(b.dim(0) == k, "matmul: inner dimensions disagree");
  Tensor c({m, n});
  gemm(m, n, k, a.raw(), k, false, b.raw(), n, false, 0.0f, c.raw(), n);
  return c;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_a a");
  require_matrix(b, "matmul_transpose_a b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  EUGENE_REQUIRE(b.dim(0) == k, "matmul_transpose_a: inner dimensions disagree");
  Tensor c({m, n});
  gemm(m, n, k, a.raw(), m, true, b.raw(), n, false, 0.0f, c.raw(), n);
  return c;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b a");
  require_matrix(b, "matmul_transpose_b b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  EUGENE_REQUIRE(b.dim(1) == k, "matmul_transpose_b: inner dimensions disagree");
  Tensor c({m, n});
  gemm(m, n, k, a.raw(), k, false, b.raw(), k, true, 0.0f, c.raw(), n);
  return c;
}

namespace {

// The conv extents the frame code reads. kSide > 0 is a "same" 3×3 stride-1
// conv on a kSide×kSide plane — every served conv — where all of them are
// compile-time constants, so each copy below becomes a straight run of
// vector moves instead of a loop with a library call per row.
template <std::size_t kSide>
struct FrameExtents {
  explicit FrameExtents(const Conv2dGeometry& g)
      : ih(kSide > 0 ? kSide : g.in_height),
        iw(kSide > 0 ? kSide : g.in_width),
        oh(kSide > 0 ? kSide : g.out_height()),
        ow(kSide > 0 ? kSide : g.out_width()),
        kernel(kSide > 0 ? 3 : g.kernel),
        pad(kSide > 0 ? 1 : g.padding),
        stride(kSide > 0 ? 1 : g.stride),
        pw(iw + 2 * pad),
        plane((ih + 2 * pad) * pw) {}
  std::size_t ih, iw, oh, ow, kernel, pad, stride, pw, plane;
};

template <std::size_t kSide>
void pad_frame(const float* image_chw, const Conv2dGeometry& g, float* frame) {
  const FrameExtents<kSide> e(g);
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* dst = frame + c * e.plane;
    const float* src = image_chw + c * e.ih * e.iw;
    std::fill_n(dst, e.pad * e.pw, 0.0f);
    for (std::size_t iy = 0; iy < e.ih; ++iy) {
      float* row = dst + (e.pad + iy) * e.pw;
      std::fill_n(row, e.pad, 0.0f);
      std::memcpy(row + e.pad, src + iy * e.iw, e.iw * sizeof(float));
      std::fill_n(row + e.pad + e.iw, e.pad, 0.0f);
    }
    std::fill_n(dst + (e.pad + e.ih) * e.pw, e.pad * e.pw, 0.0f);
  }
}

// One column row per (c, ky, kx), in order: output row oy of that row reads
// `ow` floats of frame row oy·stride + ky from column kx on.
template <std::size_t kSide>
void unroll_frame(const float* frame, const Conv2dGeometry& g, float* cols) {
  const FrameExtents<kSide> e(g);
  for (std::size_t c = 0; c < g.in_channels; ++c)
    for (std::size_t ky = 0; ky < e.kernel; ++ky)
      for (std::size_t kx = 0; kx < e.kernel; ++kx)
        for (std::size_t oy = 0; oy < e.oh; ++oy, cols += e.ow) {
          const float* srow =
              frame + c * e.plane + (oy * e.stride + ky) * e.pw + kx;
          if (e.stride == 1) {
            std::memcpy(cols, srow, e.ow * sizeof(float));
          } else {
            for (std::size_t ox = 0; ox < e.ow; ++ox)
              cols[ox] = srow[ox * e.stride];
          }
        }
}

/// kSide for `g`: its plane side when it is a "same" 3×3 stride-1 conv on
/// a 4×4, 8×8 or 16×16 plane, else 0.
std::size_t fixed_side(const Conv2dGeometry& g) {
  const bool same3x3 = g.kernel == 3 && g.padding == 1 && g.stride == 1 &&
                       g.in_height == g.in_width;
  const std::size_t side = g.in_width;
  return same3x3 && (side == 4 || side == 8 || side == 16) ? side : 0;
}

}  // namespace

std::size_t im2col_frame_floats(const Conv2dGeometry& g) {
  return g.in_channels * (g.in_height + 2 * g.padding) *
         (g.in_width + 2 * g.padding);
}

void pad_into_frame(const float* image_chw, const Conv2dGeometry& g,
                    float* frame) {
  switch (fixed_side(g)) {
    case 4: return pad_frame<4>(image_chw, g, frame);
    case 8: return pad_frame<8>(image_chw, g, frame);
    case 16: return pad_frame<16>(image_chw, g, frame);
    default: return pad_frame<0>(image_chw, g, frame);
  }
}

void im2col_into(const float* image_chw, const Conv2dGeometry& g,
                 float* frame, float* cols) {
  pad_into_frame(image_chw, g, frame);
  switch (fixed_side(g)) {
    case 4: return unroll_frame<4>(frame, g, cols);
    case 8: return unroll_frame<8>(frame, g, cols);
    case 16: return unroll_frame<16>(frame, g, cols);
    default: return unroll_frame<0>(frame, g, cols);
  }
}

Tensor im2col(const Tensor& image_chw, const Conv2dGeometry& g) {
  EUGENE_REQUIRE(image_chw.rank() == 3, "im2col: expected CHW image");
  EUGENE_REQUIRE(image_chw.dim(0) == g.in_channels && image_chw.dim(1) == g.in_height &&
                     image_chw.dim(2) == g.in_width,
                 "im2col: image does not match geometry");
  Tensor cols({g.in_channels * g.kernel * g.kernel, g.out_height() * g.out_width()});
  std::vector<float> frame(im2col_frame_floats(g));
  im2col_into(image_chw.raw(), g, frame.data(), cols.raw());
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

PlaneKernels plane_kernels_with_isa(GemmIsa isa) {
  EUGENE_REQUIRE(gemm_isa_available(isa), "plane_kernels: requested ISA unavailable");
  return isa == GemmIsa::kAvx2 ? detail::avx2_plane_kernels()
                               : detail::scalar_plane_kernels();
}

}  // namespace eugene::tensor
