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

namespace sdrbist::simd {

namespace {

double scalar_dot(const double* a, const double* b, std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
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
        &scalar_dot,
        &scalar_blend_dot,
        &scalar_blend_dot_cplx,
        &scalar_quantize,
        &scalar_carrier_mix,
    };
    return ops;
}

} // namespace sdrbist::simd
