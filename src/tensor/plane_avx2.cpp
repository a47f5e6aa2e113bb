// AVX2 channel-norm and pooling bodies. Target attributes enable AVX2 only,
// never FMA: with FMA GCC would contract the normalize step's multiply and
// add (its C++ default is -ffp-contract=fast) and every norm output would
// move. Each body reproduces plane_scalar.cpp bit for bit; shapes a body does
// not cover run the scalar one.
#include "tensor/plane_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace eugene::tensor::detail {
namespace {

#define EUGENE_AVX2 __attribute__((target("avx2")))

// Four planes' totals of eight double lanes each (lanes 0–3 in lo[g], 4–7 in
// hi[g]), combined in the fixed order ((0+1)+(2+3)) + ((4+5)+(6+7)).
EUGENE_AVX2 __m256d combine4(const __m256d* lo, const __m256d* hi) {
  __m256d st[2];  // [s0 t0 s1 t1], [s2 t2 s3 t3]: s = (0+1)+(2+3), t = (4+5)+(6+7)
  for (int k = 0; k < 2; ++k) {
    const __m256d a = _mm256_hadd_pd(lo[2 * k], hi[2 * k]);  // [0+1 4+5 2+3 6+7]
    const __m256d b = _mm256_hadd_pd(lo[2 * k + 1], hi[2 * k + 1]);
    st[k] = _mm256_add_pd(_mm256_permute2f128_pd(a, b, 0x20),
                          _mm256_permute2f128_pd(a, b, 0x31));
  }
  return _mm256_permute4x64_pd(_mm256_hadd_pd(st[0], st[1]), 0xD8);
}

// Four consecutive planes' lane totals of their floats, or with kCentred of
// their squared deviations from mean[g] (unused otherwise): 8 floats per
// plane per step, 8 add chains in flight.
template <bool kCentred>
EUGENE_AVX2 __m256d sum4(const float* x, std::size_t hw, __m256d mean) {
  __m256d lo[4], hi[4];
  const __m256d m[4] = {  // mean[g] in every lane
      _mm256_permute4x64_pd(mean, 0x00), _mm256_permute4x64_pd(mean, 0x55),
      _mm256_permute4x64_pd(mean, 0xAA), _mm256_permute4x64_pd(mean, 0xFF)};
  for (int g = 0; g < 4; ++g) lo[g] = hi[g] = _mm256_setzero_pd();
  for (std::size_t i = 0; i < hw; i += 8)
    for (int g = 0; g < 4; ++g) {
      __m256d a = _mm256_cvtps_pd(_mm_loadu_ps(x + g * hw + i));
      __m256d b = _mm256_cvtps_pd(_mm_loadu_ps(x + g * hw + i + 4));
      if constexpr (kCentred) {
        a = _mm256_sub_pd(a, m[g]);
        b = _mm256_sub_pd(b, m[g]);
        a = _mm256_mul_pd(a, a);
        b = _mm256_mul_pd(b, b);
      }
      lo[g] = _mm256_add_pd(lo[g], a);
      hi[g] = _mm256_add_pd(hi[g], b);
    }
  return combine4(lo, hi);
}

// Planes a multiple of 8 floats, four at a time: both statistics four planes
// wide, then each plane's normalize pass. The pass's pointers are copied to
// locals first, as the vector stores may alias anything, `p` included.
EUGENE_AVX2 void channel_norm(const ChannelNormPass& p) {
  const std::size_t hw = p.hw;
  if (hw % 8 != 0 || p.channels % 4 != 0) return scalar_plane_kernels().channel_norm(p);
  const float *x = p.x, *shortcut = p.shortcut;
  float *out = p.out, *xhat_out = p.xhat;
  const bool relu = p.relu;
  const __m256d n = _mm256_set1_pd(static_cast<double>(hw));
  for (std::size_t c = 0; c < p.channels; c += 4) {
    const __m256d mean = _mm256_div_pd(sum4<false>(x + c * hw, hw, n), n);
    const __m256d var = _mm256_div_pd(sum4<true>(x + c * hw, hw, mean), n);
    const __m256d sd = _mm256_sqrt_pd(_mm256_add_pd(var, _mm256_set1_pd(p.epsilon)));
    alignas(16) float meanf[4], inv_std[4];
    _mm_store_ps(meanf, _mm256_cvtpd_ps(mean));
    _mm_store_ps(inv_std, _mm256_cvtpd_ps(_mm256_div_pd(_mm256_set1_pd(1.0), sd)));
    for (std::size_t g = 0; g < 4; ++g) {
      if (p.inv_std != nullptr) p.inv_std[c + g] = inv_std[g];
      const __m256 vm = _mm256_set1_ps(meanf[g]), vs = _mm256_set1_ps(inv_std[g]);
      const __m256 vg = _mm256_set1_ps(p.gain[c + g]);
      const __m256 vb = _mm256_set1_ps(p.bias[c + g]);
      for (std::size_t i = (c + g) * hw; i < (c + g + 1) * hw; i += 8) {
        const __m256 xhat = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vs);
        if (xhat_out != nullptr) _mm256_storeu_ps(xhat_out + i, xhat);
        __m256 y = _mm256_add_ps(_mm256_mul_ps(vg, xhat), vb);
        if (shortcut != nullptr) y = _mm256_add_ps(y, _mm256_loadu_ps(shortcut + i));
        // max(y, 0) is y only when y > 0: the scalar `y > 0 ? y : 0`, NaN
        // and -0 included.
        if (relu) y = _mm256_max_ps(y, _mm256_setzero_ps());
        _mm256_storeu_ps(out + i, y);
      }
    }
  }
}

// Eight planes side by side, lane c summing plane c0 + c in index order:
// each step transposes the planes' next eight floats into eight vectors, one
// index of every plane each, and adds them in index order.
EUGENE_AVX2 void global_avg_pool(const float* x, std::size_t channels, std::size_t hw,
                                 float* out) {
  const std::size_t c8 = hw % 8 == 0 ? channels / 8 * 8 : 0;
  for (std::size_t c0 = 0; c0 < c8; c0 += 8) {
    const float* plane = x + c0 * hw;
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t i = 0; i < hw; i += 8) {
      __m256 r[8], t[8];
      for (std::size_t c = 0; c < 8; ++c) r[c] = _mm256_loadu_ps(plane + c * hw + i);
      for (std::size_t c = 0; c < 8; c += 2) {
        t[c] = _mm256_unpacklo_ps(r[c], r[c + 1]);
        t[c + 1] = _mm256_unpackhi_ps(r[c], r[c + 1]);
      }
      for (std::size_t c = 0; c < 8; c += 4) {
        r[c] = _mm256_shuffle_ps(t[c], t[c + 2], 0x44);
        r[c + 1] = _mm256_shuffle_ps(t[c], t[c + 2], 0xEE);
        r[c + 2] = _mm256_shuffle_ps(t[c + 1], t[c + 3], 0x44);
        r[c + 3] = _mm256_shuffle_ps(t[c + 1], t[c + 3], 0xEE);
      }
      for (std::size_t j = 0; j < 4; ++j)
        acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(r[j], r[j + 4], 0x20));
      for (std::size_t j = 0; j < 4; ++j)
        acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(r[j], r[j + 4], 0x31));
    }
    const __m256 n = _mm256_set1_ps(static_cast<float>(hw));
    _mm256_storeu_ps(out + c0, _mm256_div_ps(acc, n));
  }
  scalar_plane_kernels().global_avg_pool(x + c8 * hw, channels - c8, hw, out + c8);
}

// Output widths a multiple of 4: four windows per step, from eight floats of
// the window's top row and eight of the row below, split into even and odd
// columns. A window keeps its best unless the next element compares greater
// (ordered: never a NaN) — a blend, not max.
EUGENE_AVX2 void max_pool_2x2(const float* x, std::size_t channels, std::size_t height,
                              std::size_t width, float* out) {
  const std::size_t oh = height / 2, ow = width / 2;
  if (ow % 4 != 0)
    return scalar_plane_kernels().max_pool_2x2(x, channels, height, width, out);
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t y = 0; y < oh; ++y, out += ow) {
      const float* top = x + (c * height + 2 * y) * width;
      for (std::size_t xo = 0; xo < ow; xo += 4) {
        const float* t = top + 2 * xo;
        const __m128 t0 = _mm_loadu_ps(t), t1 = _mm_loadu_ps(t + 4);
        const __m128 b0 = _mm_loadu_ps(t + width), b1 = _mm_loadu_ps(t + width + 4);
        __m128 best = _mm_shuffle_ps(t0, t1, 0x88);
        for (const __m128 v : {_mm_shuffle_ps(t0, t1, 0xDD), _mm_shuffle_ps(b0, b1, 0x88),
                               _mm_shuffle_ps(b0, b1, 0xDD)})
          best = _mm_blendv_ps(best, v, _mm_cmpgt_ps(v, best));
        _mm_storeu_ps(out + xo, best);
      }
    }
}

}  // namespace

PlaneKernels avx2_plane_kernels() {
  return {&channel_norm, &global_avg_pool, &max_pool_2x2};
}

}  // namespace eugene::tensor::detail

#else  // non-x86: AVX2 is never available; keep the dispatch total.
eugene::tensor::PlaneKernels eugene::tensor::detail::avx2_plane_kernels() {
  return scalar_plane_kernels();
}
#endif
