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
///  * `pnbs_fill` computes each tap's numerators as FMA chains (bounded
///    against scalar) and reads the window with gathers that reproduce the
///    scalar LUT read bit for bit; its tail taps run the scalar loop.
///    `pnbs_even_fill` and `pnbs_odd_fill` run the same per-lane bodies.
///  * The elementwise kernels (`quantize_midrise`, `carrier_mix`) use only
///    correctly-rounded mul/add/sub/div/min/max/floor in the scalar
///    expression order — bit-identical to the scalar backend.  No FMA
///    there, and `-ffp-contract=off` keeps the loop tails honest.

#include "core/simd/kernel_backend.hpp"

#if defined(SDRBIST_SIMD_AVX2) && defined(__AVX2__)

#include <cmath>
#include <immintrin.h>

namespace sdrbist::simd {

namespace {

/// Horizontal sum of the four lanes.
inline double hsum(__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

void avx2_dot2(const double* a, const double* ca, const double* b,
               const double* cb, std::size_t n, double* out_a,
               double* out_b) {
    __m256d acc_a = _mm256_setzero_pd();
    __m256d acc_b = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc_a = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                                _mm256_loadu_pd(ca + i), acc_a);
        acc_b = _mm256_fmadd_pd(_mm256_loadu_pd(b + i),
                                _mm256_loadu_pd(cb + i), acc_b);
    }
    double ra = hsum(acc_a);
    double rb = hsum(acc_b);
    for (; i < n; ++i) {
        ra += a[i] * ca[i];
        rb += b[i] * cb[i];
    }
    *out_a = ra;
    *out_b = rb;
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

/// dsp::kaiser_lut::operator() on four lanes: |u|·res truncated to an
/// int32 index and the same blend.  Lanes with |u| ≥ 1 are masked out of
/// the gathers (no read leaves the table) and blend 0 + 0·0 = 0.
inline __m256d lut_window4(const double* lut, __m256d res, __m256d u) {
    const __m256d au = _mm256_andnot_pd(_mm256_set1_pd(-0.0), u);
    const __m256d inside =
        _mm256_cmp_pd(au, _mm256_set1_pd(1.0), _CMP_LT_OQ);
    const __m256d pos = _mm256_mul_pd(_mm256_and_pd(au, inside), res);
    const __m128i idx = _mm256_cvttpd_epi32(pos);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d lo = _mm256_mask_i32gather_pd(zero, lut, idx, inside, 8);
    const __m256d hi =
        _mm256_mask_i32gather_pd(zero, lut + 1, idx, inside, 8);
    const __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(idx));
    return _mm256_add_pd(lo, _mm256_mul_pd(frac, _mm256_sub_pd(hi, lo)));
}

/// Σ wm·tab_m[i..i+4) as a fused multiply-add chain in the scalar order.
inline __m256d numerator4(const pnbs_fill_args& a, const double* wt,
                          std::size_t i) {
    __m256d r = _mm256_mul_pd(_mm256_set1_pd(wt[0]), _mm256_loadu_pd(a.c0 + i));
    r = _mm256_fmadd_pd(_mm256_set1_pd(wt[1]), _mm256_loadu_pd(a.s0 + i), r);
    r = _mm256_fmadd_pd(_mm256_set1_pd(wt[2]), _mm256_loadu_pd(a.c1 + i), r);
    return _mm256_fmadd_pd(_mm256_set1_pd(wt[3]), _mm256_loadu_pd(a.s1 + i),
                           r);
}

/// A fill's per-call scalars broadcast once per call: the stores through
/// ce / co may alias the arguments, so reading them inside the loop would
/// reload and re-broadcast them every block.
struct fill_lanes {
    __m256d frac, d_frac, inv_span, res;
    __m256d j0; ///< tap offsets of the first four taps
};

inline fill_lanes broadcast(const pnbs_fill_args& a) {
    return {_mm256_set1_pd(a.frac), _mm256_set1_pd(a.d_frac),
            _mm256_set1_pd(a.inv_span), _mm256_set1_pd(a.window_res),
            // Tap offsets are small integers, so stepping them is exact.
            _mm256_add_pd(_mm256_set1_pd(a.j_first),
                          _mm256_set_pd(3.0, 2.0, 1.0, 0.0))};
}

/// pnbs_fill's even coefficients of the four taps from tap i, at offsets j.
inline __m256d even4(const pnbs_fill_args& a, const fill_lanes& l,
                     __m256d j, std::size_t i) {
    const __m256d fj = _mm256_sub_pd(l.frac, j);
    const __m256d w =
        lut_window4(a.window, l.res, _mm256_mul_pd(fj, l.inv_span));
    return _mm256_mul_pd(w, _mm256_div_pd(numerator4(a, a.even, i), fj));
}

/// pnbs_fill's odd coefficients of the same four taps.
inline __m256d odd4(const pnbs_fill_args& a, const fill_lanes& l, __m256d j,
                    std::size_t i) {
    const __m256d q = _mm256_sub_pd(l.d_frac, _mm256_sub_pd(l.frac, j));
    const __m256d w =
        lut_window4(a.window, l.res, _mm256_mul_pd(q, l.inv_span));
    return _mm256_mul_pd(w, _mm256_div_pd(numerator4(a, a.odd, i), q));
}

/// The arguments of taps i, i+1, ...: what the scalar tail runs on.
inline pnbs_fill_args from_tap(const pnbs_fill_args& a, std::size_t i) {
    pnbs_fill_args rest = a;
    rest.c0 += i;
    rest.s0 += i;
    rest.c1 += i;
    rest.s1 += i;
    rest.j_first += static_cast<double>(i);
    return rest;
}

void avx2_pnbs_fill(const pnbs_fill_args& a, std::size_t n, double* ce,
                    double* co) {
    const fill_lanes l = broadcast(a);
    const __m256d four = _mm256_set1_pd(4.0);
    __m256d j = l.j0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, j = _mm256_add_pd(j, four)) {
        _mm256_storeu_pd(ce + i, even4(a, l, j, i));
        _mm256_storeu_pd(co + i, odd4(a, l, j, i));
    }
    if (i < n)
        scalar_ops().pnbs_fill(from_tap(a, i), n - i, ce + i, co + i);
}

void avx2_pnbs_even_fill(const pnbs_fill_args& a, std::size_t n,
                         double* ce) {
    const fill_lanes l = broadcast(a);
    const __m256d four = _mm256_set1_pd(4.0);
    __m256d j = l.j0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, j = _mm256_add_pd(j, four))
        _mm256_storeu_pd(ce + i, even4(a, l, j, i));
    if (i < n)
        scalar_ops().pnbs_even_fill(from_tap(a, i), n - i, ce + i);
}

void avx2_pnbs_odd_fill(const pnbs_fill_args& a, std::size_t n, double* co) {
    const fill_lanes l = broadcast(a);
    const __m256d four = _mm256_set1_pd(4.0);
    __m256d j = l.j0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, j = _mm256_add_pd(j, four))
        _mm256_storeu_pd(co + i, odd4(a, l, j, i));
    if (i < n)
        scalar_ops().pnbs_odd_fill(from_tap(a, i), n - i, co + i);
}

} // namespace

const kernel_ops& avx2_ops() {
    static constexpr kernel_ops ops{
        "avx2",
        20,
        &avx2_dot2,
        &avx2_blend_dot,
        &avx2_blend_dot_cplx,
        &avx2_quantize,
        &avx2_carrier_mix,
        &avx2_pnbs_fill,
        &avx2_pnbs_even_fill,
        &avx2_pnbs_odd_fill,
    };
    return ops;
}

} // namespace sdrbist::simd

#endif // SDRBIST_SIMD_AVX2 && __AVX2__
