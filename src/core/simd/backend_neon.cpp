/// \file backend_neon.cpp
/// \brief AArch64 Advanced SIMD (NEON) backend: 128-bit (2-wide double)
///        implementations of the kernel table.
///
/// NEON double-precision vectors are mandatory on AArch64, so no extra ISA
/// flags are needed — the translation unit is simply only compiled into
/// AArch64 builds (see SDRBIST_SIMD_NEON in CMakeLists.txt), with
/// `-ffp-contract=off` so the elementwise kernels' mul/add pairs match the
/// scalar backend bit-for-bit.  The accumulating kernels use explicit FMA
/// (`vfmaq_f64`) and are reassociated relative to scalar, like AVX2.

#include "core/simd/kernel_backend.hpp"

#if defined(SDRBIST_SIMD_NEON) && defined(__aarch64__)

#include <arm_neon.h>
#include <cmath>

#include "core/simd/mt_recurrence.hpp"

namespace sdrbist::simd {

namespace {

double neon_dot(const double* a, const double* b, std::size_t n) {
    float64x2_t acc = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        acc = vfmaq_f64(acc, vld1q_f64(a + i), vld1q_f64(b + i));
    double r = vaddvq_f64(acc);
    for (; i < n; ++i)
        r += a[i] * b[i];
    return r;
}

/// coeff vector for taps [i, i+2): the cubic blend of four LUT rows.
inline float64x2_t blend2(const double* r0, const double* r1,
                          const double* r2, const double* r3, std::size_t i,
                          const double* w) {
    float64x2_t c = vmulq_n_f64(vld1q_f64(r0 + i), w[0]);
    c = vfmaq_n_f64(c, vld1q_f64(r1 + i), w[1]);
    c = vfmaq_n_f64(c, vld1q_f64(r2 + i), w[2]);
    c = vfmaq_n_f64(c, vld1q_f64(r3 + i), w[3]);
    return c;
}

double neon_blend_dot(const double* x, const double* rows, std::size_t stride,
                      const double* w, std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    float64x2_t acc = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        acc = vfmaq_f64(acc, vld1q_f64(x + i), blend2(r0, r1, r2, r3, i, w));
    double r = vaddvq_f64(acc);
    for (; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        r += x[i] * coeff;
    }
    return r;
}

std::complex<double> neon_blend_dot_cplx(const std::complex<double>* x,
                                         const double* rows,
                                         std::size_t stride, const double* w,
                                         std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    const double* xd = reinterpret_cast<const double*>(x);
    // Two interleaved [re, im] accumulators (even and odd taps).
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2_t c = blend2(r0, r1, r2, r3, i, w);
        acc0 = vfmaq_laneq_f64(acc0, vld1q_f64(xd + 2 * i), c, 0);
        acc1 = vfmaq_laneq_f64(acc1, vld1q_f64(xd + 2 * i + 2), c, 1);
    }
    const float64x2_t acc = vaddq_f64(acc0, acc1);
    double re = vgetq_lane_f64(acc, 0);
    double im = vgetq_lane_f64(acc, 1);
    for (; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        re += x[i].real() * coeff;
        im += x[i].imag() * coeff;
    }
    return {re, im};
}

void neon_quantize(const double* x, double* out, std::size_t n, double scale,
                   const quantize_params& p) {
    const float64x2_t vs = vdupq_n_f64(scale);
    const float64x2_t vg = vdupq_n_f64(p.gain);
    const float64x2_t vo = vdupq_n_f64(p.offset);
    const float64x2_t vlo = vdupq_n_f64(p.clip_lo);
    const float64x2_t vhi = vdupq_n_f64(p.clip_hi);
    const float64x2_t vlsb = vdupq_n_f64(p.lsb);
    const float64x2_t vhalf = vdupq_n_f64(0.5);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        float64x2_t t = vmulq_f64(vld1q_f64(x + i), vs);
        t = vaddq_f64(vmulq_f64(t, vg), vo); // mul+add, never FMA
        t = vminq_f64(vmaxq_f64(t, vlo), vhi);
        t = vrndmq_f64(vdivq_f64(t, vlsb)); // round toward -inf == floor
        t = vmulq_f64(vaddq_f64(t, vhalf), vlsb);
        vst1q_f64(out + i, t);
    }
    for (; i < n; ++i) {
        const double scaled = x[i] * scale;
        const double gained = scaled * p.gain;
        const double shifted = gained + p.offset;
        double v = shifted < p.clip_lo ? p.clip_lo : shifted;
        v = v > p.clip_hi ? p.clip_hi : v;
        out[i] = p.lsb * (std::floor(v / p.lsb) + 0.5);
    }
}

void neon_carrier_mix(const std::complex<double>* env, const double* cos_wt,
                      const double* sin_wt, double* out, std::size_t n) {
    const double* ed = reinterpret_cast<const double*>(env);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2x2_t e = vld2q_f64(ed + 2 * i); // deinterleave re/im
        const float64x2_t r =
            vsubq_f64(vmulq_f64(e.val[0], vld1q_f64(cos_wt + i)),
                      vmulq_f64(e.val[1], vld1q_f64(sin_wt + i)));
        vst1q_f64(out + i, r);
    }
    for (; i < n; ++i) {
        const double re = env[i].real() * cos_wt[i];
        const double im = env[i].imag() * sin_wt[i];
        out[i] = re - im;
    }
}

} // namespace

const kernel_ops& neon_ops() {
    static constexpr kernel_ops ops{
        "neon",
        10,
        &neon_dot,
        &neon_blend_dot,
        &neon_blend_dot_cplx,
        &neon_quantize,
        &neon_carrier_mix,
        &mt_twist,
    };
    return ops;
}

} // namespace sdrbist::simd

#endif // SDRBIST_SIMD_NEON && __aarch64__
