/// \file backend_avx2.cpp
/// \brief AVX2 + FMA backend: 256-bit (4-wide double) implementations of
///        the kernel table.
///
/// Compiled with `-mavx2 -mfma -ffp-contract=off` for this translation
/// unit only (see CMakeLists.txt) — the rest of the library stays on the
/// baseline ISA so the binary runs on any x86-64 and the dispatcher picks
/// this table up at runtime via CPUID.
///
/// Numerics:
///  * The accumulating kernels split the sum across vector lanes and use
///    explicit FMA — reassociated relative to scalar, deterministic for a
///    given length (lane assignment depends only on the index, never on
///    pointer alignment: all loads are unaligned loads).
///  * The elementwise kernels (`quantize_midrise`, `carrier_mix`) use only
///    correctly-rounded mul/add/sub/div/min/max/floor in the scalar
///    expression order — bit-identical to the scalar backend.  No FMA
///    there, and `-ffp-contract=off` keeps the loop tails honest.
///  * `mt_refill` is the shared integer twist (mt_recurrence.hpp), which
///    the compiler vectorises under these flags; bit-identical to scalar.

#include "core/simd/kernel_backend.hpp"

#if defined(SDRBIST_SIMD_AVX2) && defined(__AVX2__)

#include <cmath>
#include <immintrin.h>

#include "core/simd/mt_recurrence.hpp"

namespace sdrbist::simd {

namespace {

/// Horizontal sum of the four lanes.
inline double hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

double avx2_dot(const double* a, const double* b, std::size_t n) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                              acc);
    double r = hsum(acc);
    for (; i < n; ++i)
        r += a[i] * b[i];
    return r;
}

/// coeff vector for taps [i, i+4): the cubic blend of four LUT rows.
inline __m256d blend4(const double* r0, const double* r1, const double* r2,
                      const double* r3, std::size_t i, __m256d w0, __m256d w1,
                      __m256d w2, __m256d w3) {
    __m256d c = _mm256_mul_pd(w0, _mm256_loadu_pd(r0 + i));
    c = _mm256_fmadd_pd(w1, _mm256_loadu_pd(r1 + i), c);
    c = _mm256_fmadd_pd(w2, _mm256_loadu_pd(r2 + i), c);
    c = _mm256_fmadd_pd(w3, _mm256_loadu_pd(r3 + i), c);
    return c;
}

double avx2_blend_dot(const double* x, const double* rows, std::size_t stride,
                      const double* w, std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    const __m256d w0 = _mm256_set1_pd(w[0]);
    const __m256d w1 = _mm256_set1_pd(w[1]);
    const __m256d w2 = _mm256_set1_pd(w[2]);
    const __m256d w3 = _mm256_set1_pd(w[3]);
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                              blend4(r0, r1, r2, r3, i, w0, w1, w2, w3), acc);
    double r = hsum(acc);
    for (; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        r += x[i] * coeff;
    }
    return r;
}

std::complex<double> avx2_blend_dot_cplx(const std::complex<double>* x,
                                         const double* rows,
                                         std::size_t stride, const double* w,
                                         std::size_t n) {
    const double* r0 = rows;
    const double* r1 = rows + stride;
    const double* r2 = rows + 2 * stride;
    const double* r3 = rows + 3 * stride;
    const double* xd = reinterpret_cast<const double*>(x);
    const __m256d w0 = _mm256_set1_pd(w[0]);
    const __m256d w1 = _mm256_set1_pd(w[1]);
    const __m256d w2 = _mm256_set1_pd(w[2]);
    const __m256d w3 = _mm256_set1_pd(w[3]);
    // acc holds two interleaved complex accumulators [reA, imA, reB, imB].
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d c = blend4(r0, r1, r2, r3, i, w0, w1, w2, w3);
        // [c0,c0,c1,c1] and [c2,c2,c3,c3] against the re/im pairs.
        const __m256d clo = _mm256_permute4x64_pd(c, 0x50);
        const __m256d chi = _mm256_permute4x64_pd(c, 0xFA);
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(xd + 2 * i), clo, acc);
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(xd + 2 * i + 4), chi, acc);
    }
    const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                 _mm256_extractf128_pd(acc, 1));
    double re = _mm_cvtsd_f64(s);
    double im = _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    for (; i < n; ++i) {
        const double coeff =
            w[0] * r0[i] + w[1] * r1[i] + w[2] * r2[i] + w[3] * r3[i];
        re += x[i].real() * coeff;
        im += x[i].imag() * coeff;
    }
    return {re, im};
}

void avx2_quantize(const double* x, double* out, std::size_t n, double scale,
                   const quantize_params& p) {
    const __m256d vs = _mm256_set1_pd(scale);
    const __m256d vg = _mm256_set1_pd(p.gain);
    const __m256d vo = _mm256_set1_pd(p.offset);
    const __m256d vlo = _mm256_set1_pd(p.clip_lo);
    const __m256d vhi = _mm256_set1_pd(p.clip_hi);
    const __m256d vlsb = _mm256_set1_pd(p.lsb);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d t = _mm256_mul_pd(_mm256_loadu_pd(x + i), vs);
        t = _mm256_add_pd(_mm256_mul_pd(t, vg), vo); // mul+add, never FMA
        // min/max return the SECOND operand when the first is NaN; keeping
        // the sample in the second slot propagates NaN exactly like the
        // scalar backend's ordered comparisons (bit-identity contract).
        t = _mm256_min_pd(vhi, _mm256_max_pd(vlo, t));
        t = _mm256_floor_pd(_mm256_div_pd(t, vlsb));
        t = _mm256_mul_pd(_mm256_add_pd(t, vhalf), vlsb);
        _mm256_storeu_pd(out + i, t);
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

void avx2_carrier_mix(const std::complex<double>* env, const double* cos_wt,
                      const double* sin_wt, double* out, std::size_t n) {
    const double* ed = reinterpret_cast<const double*>(env);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d e0 = _mm256_loadu_pd(ed + 2 * i);     // re0 im0 re1 im1
        const __m256d e1 = _mm256_loadu_pd(ed + 2 * i + 4); // re2 im2 re3 im3
        const __m256d t0 = _mm256_permute2f128_pd(e0, e1, 0x20);
        const __m256d t1 = _mm256_permute2f128_pd(e0, e1, 0x31);
        const __m256d re = _mm256_unpacklo_pd(t0, t1); // re0 re1 re2 re3
        const __m256d im = _mm256_unpackhi_pd(t0, t1); // im0 im1 im2 im3
        const __m256d r =
            _mm256_sub_pd(_mm256_mul_pd(re, _mm256_loadu_pd(cos_wt + i)),
                          _mm256_mul_pd(im, _mm256_loadu_pd(sin_wt + i)));
        _mm256_storeu_pd(out + i, r);
    }
    for (; i < n; ++i) {
        const double re = env[i].real() * cos_wt[i];
        const double im = env[i].imag() * sin_wt[i];
        out[i] = re - im;
    }
}

} // namespace

const kernel_ops& avx2_ops() {
    static constexpr kernel_ops ops{
        "avx2",
        20,
        &avx2_dot,
        &avx2_blend_dot,
        &avx2_blend_dot_cplx,
        &avx2_quantize,
        &avx2_carrier_mix,
        &mt_twist,
    };
    return ops;
}

} // namespace sdrbist::simd

#endif // SDRBIST_SIMD_AVX2 && __AVX2__
