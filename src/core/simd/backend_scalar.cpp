/// \file backend_scalar.cpp
/// \brief Portable reference backend: sequential loops with the exact
///        expression shapes the PR 2 hot paths used inline, so forcing
///        `scalar` reproduces the pre-SIMD results bit-for-bit.
///
/// This translation unit is compiled with `-ffp-contract=off` (see
/// CMakeLists.txt): the multiply-add pairs below must stay separate
/// multiplies and adds on every architecture, or the cross-backend
/// bit-identity contract of the elementwise kernels would break on
/// targets whose baseline ISA has fused multiply-add (AArch64).

#include "core/simd/kernel_backend.hpp"

#include <cmath>
#include <cstdint>

namespace sdrbist::simd {

namespace {

/// dsp::kaiser_lut::operator() on a raw table: the index is truncated to
/// int32, the same value as the class's size_t cast for 0 ≤ pos < res.
inline double lut_window(const double* lut, double res, double u) {
    u = u < 0.0 ? -u : u;
    if (u >= 1.0)
        return 0.0;
    const double pos = u * res;
    const auto i = static_cast<std::int32_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return lut[i] + frac * (lut[i + 1] - lut[i]);
}

/// pnbs_fill's even coefficient of tap i.
inline double even_coeff(const pnbs_fill_args& a, std::size_t i) {
    const double fj = a.frac - (a.j_first + static_cast<double>(i));
    const double ne = a.even[0] * a.c0[i] + a.even[1] * a.s0[i] +
                      a.even[2] * a.c1[i] + a.even[3] * a.s1[i];
    return lut_window(a.window, a.window_res, fj * a.inv_span) * (ne / fj);
}

/// pnbs_fill's odd coefficient of tap i.
inline double odd_coeff(const pnbs_fill_args& a, std::size_t i) {
    const double fj = a.frac - (a.j_first + static_cast<double>(i));
    const double q = a.d_frac - fj;
    const double no = a.odd[0] * a.c0[i] + a.odd[1] * a.s0[i] +
                      a.odd[2] * a.c1[i] + a.odd[3] * a.s1[i];
    return lut_window(a.window, a.window_res, q * a.inv_span) * (no / q);
}

void scalar_pnbs_fill(const pnbs_fill_args& a, std::size_t n, double* ce,
                      double* co) {
    for (std::size_t i = 0; i < n; ++i) {
        ce[i] = even_coeff(a, i);
        co[i] = odd_coeff(a, i);
    }
}

void scalar_pnbs_even_fill(const pnbs_fill_args& a, std::size_t n,
                           double* ce) {
    for (std::size_t i = 0; i < n; ++i)
        ce[i] = even_coeff(a, i);
}

void scalar_pnbs_odd_fill(const pnbs_fill_args& a, std::size_t n,
                          double* co) {
    for (std::size_t i = 0; i < n; ++i)
        co[i] = odd_coeff(a, i);
}

void scalar_dot2(const double* a, const double* ca, const double* b,
                 const double* cb, std::size_t n, double* out_a,
                 double* out_b) {
    // Two separate sequential loops — the exact accumulation order of the
    // pre-backend PNBS stage 2.
    double acc_a = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc_a += a[i] * ca[i];
    double acc_b = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc_b += b[i] * cb[i];
    *out_a = acc_a;
    *out_b = acc_b;
}

double scalar_blend_dot(const double* x, const double* rows,
                        std::size_t stride, const double* w, std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        acc += x[i] * coeff;
    }
    return acc;
}

std::complex<double> scalar_blend_dot_cplx(const std::complex<double>* x,
                                           const double* rows,
                                           std::size_t stride, const double* w,
                                           std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    // Componentwise accumulation matches std::complex<double> += exactly.
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        re += x[i].real() * coeff;
        im += x[i].imag() * coeff;
    }
    return {re, im};
}

void scalar_quantize(const double* x, double* out, std::size_t n, double scale,
                     const quantize_params& p) {
    for (std::size_t i = 0; i < n; ++i) {
        const double scaled = x[i] * scale;
        const double gained = scaled * p.gain;
        const double shifted = gained + p.offset;
        double v = shifted < p.clip_lo ? p.clip_lo : shifted;
        v = v > p.clip_hi ? p.clip_hi : v;
        out[i] = p.lsb * (std::floor(v / p.lsb) + 0.5);
    }
}

void scalar_carrier_mix(const std::complex<double>* env, const double* cos_wt,
                        const double* sin_wt, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const double re = env[i].real() * cos_wt[i];
        const double im = env[i].imag() * sin_wt[i];
        out[i] = re - im;
    }
}

} // namespace

const kernel_ops& scalar_ops() {
    static constexpr kernel_ops ops{
        "scalar",
        0,
        &scalar_dot2,
        &scalar_blend_dot,
        &scalar_blend_dot_cplx,
        &scalar_quantize,
        &scalar_carrier_mix,
        &scalar_pnbs_fill,
        &scalar_pnbs_even_fill,
        &scalar_pnbs_odd_fill,
    };
    return ops;
}

} // namespace sdrbist::simd
