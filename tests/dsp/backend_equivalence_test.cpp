// Cross-backend equivalence lockdown: every compiled-in, CPU-supported
// SIMD backend is run against the scalar reference backend over randomised
// record shapes — lengths 0, 1, sub-vector-width, tail remainders and
// unaligned pointer offsets — and must honour the per-kernel accuracy
// contract of kernel_backend.hpp:
//
//  * dot / dot2 / blend_dot / blend_dot_cplx: reassociated accumulation,
//    deviation ≤ 1e-12 relative to Σ|aᵢ·bᵢ| (the documented ULP-style
//    bound; the true reassociation error is ~n·eps of that magnitude);
//  * quantize_midrise / carrier_mix: bit-identical;
//  * pnbs_fill: FMA numerators, deviation ≤ 1e-14 relative to the tap's
//    Σ|terms| (the zero-crossing taps the reconstructor patches are
//    excluded), with a window read bit-identical to dsp::kaiser_lut.
//
// On top of the primitive shapes, the object-level paths (windowed-sinc
// interpolator, PNBS reconstructor) are rebuilt under every forced backend
// and compared against their scalar-forced twins.
//
// On a machine without any SIMD backend the per-backend loops are vacuous
// by construction (scalar is the yardstick itself); the forced-scalar CI
// leg keeps that configuration exercised end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "dsp/interpolator.hpp"
#include "dsp/window.hpp"
#include "rf/passband.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;
using simd::kernel_backend;
using simd::kernel_ops;
using simd::scalar_ops;

/// Documented relative bound for the accumulating kernels.
constexpr double accum_rel_bound = 1e-12;

/// Record shapes every kernel is exercised on: empty, single element, below
/// vector width, exact multiples, tail remainders (including the unrolled
/// 8-wide carrier_mix loop's 4-wide and scalar tails), and the hot-path
/// sizes (61-tap PNBS window, 64-tap interpolator window).
const std::vector<std::size_t> lengths = {
    0,  1,  2,  3,  4,  5,   7,   8,   9,   11,  12,  13, 15,
    16, 17, 31, 32, 33, 61,  63,  64,  65,  100, 127, 128,
    129, 255, 256, 257, 260};

/// Pointer misalignments (in elements) applied on top of each length.
const std::vector<std::size_t> offsets = {0, 1, 2, 3};

std::vector<double> random_record(rng& gen, std::size_t n, double lo = -2.0,
                                  double hi = 2.0) {
    return gen.uniform_vector(n, lo, hi);
}

/// Non-scalar backends the CPU can run (scalar is the yardstick).
std::vector<const kernel_ops*> simd_backends() {
    std::vector<const kernel_ops*> out;
    for (const auto* ops : kernel_backend::available())
        if (std::string_view(ops->name) != "scalar")
            out.push_back(ops);
    return out;
}

TEST(BackendEquivalence, Dot2MatchesTwoSeparateDots) {
    rng gen(0xD072);
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                const auto a = random_record(gen, n + off);
                const auto ca = random_record(gen, n + off);
                const auto b = random_record(gen, n + off);
                const auto cb = random_record(gen, n + off);
                double ref_a = 0.0, ref_b = 0.0;
                scalar_ops().dot2(a.data() + off, ca.data() + off,
                                  b.data() + off, cb.data() + off, n, &ref_a,
                                  &ref_b);
                double got_a = 0.0, got_b = 0.0;
                ops->dot2(a.data() + off, ca.data() + off, b.data() + off,
                          cb.data() + off, n, &got_a, &got_b);
                double mag_a = 0.0, mag_b = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    mag_a += std::abs(a[off + i] * ca[off + i]);
                    mag_b += std::abs(b[off + i] * cb[off + i]);
                }
                EXPECT_LE(std::abs(got_a - ref_a), accum_rel_bound * mag_a)
                    << ops->name << " n=" << n << " off=" << off;
                EXPECT_LE(std::abs(got_b - ref_b), accum_rel_bound * mag_b)
                    << ops->name << " n=" << n << " off=" << off;
                // Deterministic: same inputs, same result, call after call.
                double again_a = 0.0, again_b = 0.0;
                ops->dot2(a.data() + off, ca.data() + off, b.data() + off,
                          cb.data() + off, n, &again_a, &again_b);
                EXPECT_EQ(got_a, again_a);
                EXPECT_EQ(got_b, again_b);
            }
        }
    }
}

TEST(BackendEquivalence, BlendDotMatchesScalarWithinDocumentedBound) {
    rng gen(0xB1E);
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                // Four LUT rows, stride ≥ n with random slack as in the
                // polyphase table, plus the cubic blend weights.
                const std::size_t stride =
                    n + static_cast<std::size_t>(gen.uniform_int(0, 9));
                const auto rows = random_record(gen, 4 * stride + off, -1.0,
                                                1.0);
                const auto x = random_record(gen, n + off);
                const auto w = gen.uniform_vector(4, -1.0, 1.0);
                const double* px = x.data() + off;
                const double* pr = rows.data() + off;
                // stride keeps rows overlapping when off > 0; harmless —
                // the kernel only reads, and the scalar yardstick reads
                // the same cells.
                const double ref =
                    scalar_ops().blend_dot(px, pr, stride, w.data(), n);
                const double got = ops->blend_dot(px, pr, stride, w.data(), n);
                double mag = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    const double coeff =
                        w[0] * pr[i] + w[1] * pr[i + stride] +
                        w[2] * pr[i + 2 * stride] + w[3] * pr[i + 3 * stride];
                    mag += std::abs(px[i] * coeff);
                }
                EXPECT_LE(std::abs(got - ref), accum_rel_bound * mag)
                    << ops->name << " n=" << n << " off=" << off;
            }
        }
    }
}

TEST(BackendEquivalence, BlendDotCplxMatchesScalarWithinDocumentedBound) {
    rng gen(0xB1EC);
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                const std::size_t stride =
                    n + static_cast<std::size_t>(gen.uniform_int(0, 9));
                const auto rows = random_record(gen, 4 * stride + off, -1.0,
                                                1.0);
                const auto w = gen.uniform_vector(4, -1.0, 1.0);
                std::vector<std::complex<double>> x(n + off);
                for (auto& v : x)
                    v = {gen.uniform(-2.0, 2.0), gen.uniform(-2.0, 2.0)};
                const auto* px = x.data() + off;
                const double* pr = rows.data() + off;
                const auto ref = scalar_ops().blend_dot_cplx(px, pr, stride,
                                                             w.data(), n);
                const auto got =
                    ops->blend_dot_cplx(px, pr, stride, w.data(), n);
                double mag = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    const double coeff =
                        w[0] * pr[i] + w[1] * pr[i + stride] +
                        w[2] * pr[i + 2 * stride] + w[3] * pr[i + 3 * stride];
                    mag += std::abs(px[i]) * std::abs(coeff);
                }
                EXPECT_LE(std::abs(got - ref), accum_rel_bound * mag)
                    << ops->name << " n=" << n << " off=" << off;
            }
        }
    }
}

TEST(BackendEquivalence, QuantizeMidriseIsBitIdenticalAcrossBackends) {
    rng gen(0x0AD);
    simd::quantize_params p;
    p.gain = 1.0 + 0.013;
    p.offset = -0.004;
    p.clip_lo = -2.0;
    p.clip_hi = 2.0 - 1e-9;
    p.lsb = 4.0 / 1024.0;
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                // ±3 rails so a good fraction of the record clips.
                const auto x = random_record(gen, n + off, -6.0, 6.0);
                std::vector<double> ref(n), got(n);
                scalar_ops().quantize_midrise(x.data() + off, ref.data(), n,
                                              0.7, p);
                ops->quantize_midrise(x.data() + off, got.data(), n, 0.7, p);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(got[i], ref[i])
                        << ops->name << " n=" << n << " off=" << off
                        << " i=" << i;
            }
        }
    }
}

TEST(BackendEquivalence, QuantizeMidrisePropagatesNonFiniteLikeScalar) {
    // NaN stays NaN and ±inf clips to the rails on every backend — the
    // bit-identity contract includes non-finite samples (x86 min/max
    // returns its second operand on NaN, so operand order matters).
    simd::quantize_params p;
    p.gain = 1.01;
    p.offset = 0.002;
    p.clip_lo = -2.0;
    p.clip_hi = 2.0 - 1e-9;
    p.lsb = 4.0 / 1024.0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // Enough copies that both the vector body and the tail see them.
    std::vector<double> x;
    for (int rep = 0; rep < 3; ++rep)
        for (const double v : {nan, inf, -inf, 0.25, -1.5, 7.0})
            x.push_back(v);
    for (const auto* ops : simd_backends()) {
        for (std::size_t n = 0; n <= x.size(); ++n) {
            std::vector<double> ref(n), got(n);
            scalar_ops().quantize_midrise(x.data(), ref.data(), n, 0.7, p);
            ops->quantize_midrise(x.data(), got.data(), n, 0.7, p);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                          std::bit_cast<std::uint64_t>(ref[i]))
                    << ops->name << " n=" << n << " i=" << i
                    << " x=" << x[i];
        }
    }
}

TEST(BackendEquivalence, CarrierMixIsBitIdenticalAcrossBackends) {
    rng gen(0xC4);
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                std::vector<std::complex<double>> env(n + off);
                for (auto& v : env)
                    v = {gen.uniform(-2.0, 2.0), gen.uniform(-2.0, 2.0)};
                const auto c = random_record(gen, n + off, -1.0, 1.0);
                const auto s = random_record(gen, n + off, -1.0, 1.0);
                std::vector<double> ref(n), got(n);
                scalar_ops().carrier_mix(env.data() + off, c.data() + off,
                                         s.data() + off, ref.data(), n);
                ops->carrier_mix(env.data() + off, c.data() + off,
                                 s.data() + off, got.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(got[i], ref[i])
                        << ops->name << " n=" << n << " off=" << off
                        << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PNBS coefficient fill.
// ---------------------------------------------------------------------------

/// Documented relative bound for pnbs_fill against the tap's Σ|terms|.
constexpr double fill_rel_bound = 1e-14;

/// Full-window phase tables and per-point weights of one PNBS evaluation,
/// derived from the Kohlenberg kernel the way pnbs_reconstructor does.
struct fill_case {
    std::vector<double> tabs; ///< c0 | s0 | c1 | s1, taps entries each
    double even[4];
    double odd[4];
    double d_frac;
};

fill_case make_fill_case(const sampling::band_spec& band, double d,
                         long half, double frac) {
    const sampling::kohlenberg_kernel kern(band, d);
    const double period = 1.0 / band.bandwidth();
    const auto taps = static_cast<std::size_t>(2 * half + 1);
    const double del0 = pi * kern.f0() * period;
    const double del1 = pi * kern.f1() * period;
    fill_case c;
    c.tabs.resize(4 * taps);
    const bool k_odd = (kern.k() & 1L) != 0;
    for (long j = -half; j <= half; ++j) {
        const auto i = static_cast<std::size_t>(j + half);
        const bool j_odd = (j & 1L) != 0;
        const double sg0 = (k_odd && j_odd) ? -1.0 : 1.0;
        const double sg1 = (!k_odd && j_odd) ? -1.0 : 1.0;
        c.tabs[i] = sg0 * std::cos(del0 * static_cast<double>(j));
        c.tabs[taps + i] = sg0 * std::sin(del0 * static_cast<double>(j));
        c.tabs[2 * taps + i] = sg1 * std::cos(del1 * static_cast<double>(j));
        c.tabs[3 * taps + i] = sg1 * std::sin(del1 * static_cast<double>(j));
    }
    const bool s0_zero = kern.s0_vanishes();
    const double kd = static_cast<double>(kern.k());
    const double g0 = s0_zero ? 0.0 : kern.c0() / kern.sin_phi() / del0;
    const double g1 = kern.c1() / kern.sin_psi() / del1;
    const double e0 = -std::sin(pi * kd * frac - kern.phi()) * g0;
    const double e1 = -std::sin(pi * (kd + 1.0) * frac - kern.psi()) * g1;
    const double o0 = std::sin(pi * kd * frac) * g0;
    const double o1 = std::sin(pi * (kd + 1.0) * frac) * g1;
    const double a0 = del0 * frac;
    const double a1 = del1 * frac;
    const double b0 = pi * kern.f0() * d - a0;
    const double b1 = pi * kern.f1() * d - a1;
    const double even[4] = {e0 * std::sin(a0), -e0 * std::cos(a0),
                            e1 * std::sin(a1), -e1 * std::cos(a1)};
    const double odd[4] = {o0 * std::sin(b0), o0 * std::cos(b0),
                           o1 * std::sin(b1), o1 * std::cos(b1)};
    std::copy(std::begin(even), std::end(even), c.even);
    std::copy(std::begin(odd), std::end(odd), c.odd);
    c.d_frac = d / period;
    return c;
}

/// Kernel arguments for taps [j_first, j_first + n) of a fill_case.
simd::pnbs_fill_args fill_args(const fill_case& c, long half, long j_first,
                               double frac, const dsp::kaiser_lut& lut) {
    const std::size_t taps = c.tabs.size() / 4;
    const double* tab = c.tabs.data() + (j_first + half);
    simd::pnbs_fill_args a{};
    a.c0 = tab;
    a.s0 = tab + taps;
    a.c1 = tab + 2 * taps;
    a.s1 = tab + 3 * taps;
    a.window = lut.table().data();
    a.window_res = static_cast<double>(lut.resolution());
    a.frac = frac;
    a.j_first = static_cast<double>(j_first);
    a.d_frac = c.d_frac;
    a.inv_span = 1.0 / (static_cast<double>(half) + 1.0);
    std::copy(std::begin(c.even), std::end(c.even), a.even);
    std::copy(std::begin(c.odd), std::end(c.odd), a.odd);
    return a;
}

TEST(BackendEquivalence, PnbsFillMatchesScalarWithinDocumentedBound) {
    const dsp::kaiser_lut lut(8.0);
    const long half = 30; // the paper's 61 taps
    const double d = 180.0 * ps;
    // The paper band, and one whose s0 term vanishes (2·f_lo/B = 19).
    const sampling::band_spec bands[] = {
        sampling::band_around(1.0 * GHz, 90.0 * MHz),
        sampling::band_around(1.0 * GHz, 100.0 * MHz)};
    ASSERT_FALSE(sampling::kohlenberg_kernel(bands[0], d).s0_vanishes());
    ASSERT_TRUE(sampling::kohlenberg_kernel(bands[1], d).s0_vanishes());
    for (const auto* ops : simd_backends()) {
        for (const auto& band : bands) {
            const double d_frac = d * band.bandwidth();
            for (const double frac :
                 {-0.5, 0.0, 0.5, 1e-13, -1e-13, 0.3172, d_frac,
                  std::nextafter(d_frac, 1.0), std::nextafter(d_frac, 0.0)}) {
                const fill_case c = make_fill_case(band, d, half, frac);
                const long j_e = std::llround(frac);
                const long j_o = std::llround(frac - c.d_frac);
                // Every count 1..61, anchored at the window start (a record
                // end clamps j_hi), at the window end (a record start clamps
                // j_lo) and, when it fits, centred.
                for (std::size_t n = 1; n <= 61; ++n) {
                    const long span = static_cast<long>(n) - 1;
                    for (const long j_first :
                         {-half, half - span, -span / 2}) {
                        const auto a = fill_args(c, half, j_first, frac, lut);
                        std::vector<double> ref_e(n), ref_o(n), got_e(n),
                            got_o(n), again_e(n), again_o(n);
                        scalar_ops().pnbs_fill(a, n, ref_e.data(),
                                               ref_o.data());
                        ops->pnbs_fill(a, n, got_e.data(), got_o.data());
                        ops->pnbs_fill(a, n, again_e.data(), again_o.data());
                        for (std::size_t i = 0; i < n; ++i) {
                            const long j = j_first + static_cast<long>(i);
                            const double fj = frac - static_cast<double>(j);
                            const double q = c.d_frac - fj;
                            const double terms[4] = {a.c0[i], a.s0[i],
                                                     a.c1[i], a.s1[i]};
                            double mag_e = 0.0, mag_o = 0.0;
                            for (int m = 0; m < 4; ++m) {
                                mag_e += std::abs(a.even[m] * terms[m]);
                                mag_o += std::abs(a.odd[m] * terms[m]);
                            }
                            const double w_e = lut(fj * a.inv_span);
                            const double w_o = lut(q * a.inv_span);
                            if (j != j_e) {
                                EXPECT_LE(std::abs(got_e[i] - ref_e[i]),
                                          fill_rel_bound * w_e * mag_e /
                                              std::abs(fj))
                                    << ops->name << " frac=" << frac
                                    << " n=" << n << " j=" << j;
                            }
                            if (j != j_o) {
                                EXPECT_LE(std::abs(got_o[i] - ref_o[i]),
                                          fill_rel_bound * w_o * mag_o /
                                              std::abs(q))
                                    << ops->name << " frac=" << frac
                                    << " n=" << n << " j=" << j;
                            }
                            // Deterministic within the backend, bit for bit
                            // (patched lanes included).
                            EXPECT_EQ(std::bit_cast<std::uint64_t>(got_e[i]),
                                      std::bit_cast<std::uint64_t>(again_e[i]));
                            EXPECT_EQ(std::bit_cast<std::uint64_t>(got_o[i]),
                                      std::bit_cast<std::uint64_t>(again_o[i]));
                        }
                    }
                }
            }
        }
    }
}

TEST(BackendEquivalence, PnbsFillWindowIsBitIdenticalToKaiserLut) {
    // Tables and weights that make every numerator equal its divisor
    // exactly (c0 = fj, s0 = q), so each coefficient is the bare window
    // read; checked on every backend, scalar included.
    rng gen(0x3A15);
    for (const std::size_t res : {std::size_t{2048}, std::size_t{1000}}) {
        const dsp::kaiser_lut lut(8.0, res);
        auto check = [&](const kernel_ops& ops, double frac, double j_first,
                         double d_frac, double inv_span, std::size_t n) {
            std::vector<double> c0(n), s0(n), zero(n, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                c0[i] = frac - (j_first + static_cast<double>(i));
                s0[i] = d_frac - c0[i];
            }
            simd::pnbs_fill_args a{};
            a.c0 = c0.data();
            a.s0 = s0.data();
            a.c1 = zero.data();
            a.s1 = zero.data();
            a.window = lut.table().data();
            a.window_res = static_cast<double>(lut.resolution());
            a.frac = frac;
            a.j_first = j_first;
            a.d_frac = d_frac;
            a.inv_span = inv_span;
            a.even[0] = 1.0;
            a.odd[1] = 1.0;
            std::vector<double> ce(n), co(n);
            ops.pnbs_fill(a, n, ce.data(), co.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(ce[i]),
                          std::bit_cast<std::uint64_t>(lut(c0[i] * inv_span)))
                    << ops.name << " res=" << res << " u="
                    << c0[i] * inv_span;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(co[i]),
                          std::bit_cast<std::uint64_t>(lut(s0[i] * inv_span)))
                    << ops.name << " res=" << res << " u="
                    << s0[i] * inv_span;
            }
        };
        for (const auto* ops : kernel_backend::available()) {
            // Random positions spanning |u| < 1 and |u| ≥ 1 → 0.
            for (int rep = 0; rep < 200; ++rep)
                check(*ops, gen.uniform(-0.5, 0.5),
                      static_cast<double>(gen.uniform_int(-45, 0)),
                      gen.uniform(0.01, 0.99), gen.uniform(0.01, 0.05), 67);
            if (res == 2048) {
                // Exact nodes: u = j/32 from the centre to u = 1 (→ 0),
                // and u = 2047/2048, 2048/2048 — the last interval's lower
                // node and the last node itself.
                check(*ops, 0.0, -33.0, 0.5, 1.0 / 32.0, 33);
                check(*ops, 0.0, -2048.0, 0.5, 1.0 / 2048.0, 2);
                check(*ops, 0.0, 2047.0, 0.5, 1.0 / 2048.0, 2);
            }
        }
    }
}

/// One half of pnbs_fill run alone (the dual-rate cost's fills).
enum class fill_half { even, odd };

void half_fill(const kernel_ops& ops, fill_half h,
               const simd::pnbs_fill_args& a, std::size_t n, double* out) {
    if (h == fill_half::even)
        ops.pnbs_even_fill(a, n, out);
    else
        ops.pnbs_odd_fill(a, n, out);
}

/// On every backend a half-fill is that backend's pnbs_fill half bit for
/// bit, never reads the other half's inputs, and so holds the pnbs_fill
/// bound against scalar.
void check_half_fill_bound(fill_half h) {
    const bool even = h == fill_half::even;
    const dsp::kaiser_lut lut(8.0);
    const long half = 30;
    const double d = 180.0 * ps;
    const sampling::band_spec bands[] = {
        sampling::band_around(1.0 * GHz, 90.0 * MHz),
        sampling::band_around(1.0 * GHz, 100.0 * MHz)};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const auto* ops : kernel_backend::available()) {
        for (const auto& band : bands) {
            const double d_frac = d * band.bandwidth();
            for (const double frac :
                 {-0.5, 0.0, 0.5, 1e-13, 0.3172, d_frac,
                  std::nextafter(d_frac, 1.0), std::nextafter(d_frac, 0.0)}) {
                const fill_case c = make_fill_case(band, d, half, frac);
                const long j_x = std::llround(even ? frac : frac - c.d_frac);
                for (std::size_t n = 1; n <= 61; ++n) {
                    const long span = static_cast<long>(n) - 1;
                    for (const long j_first :
                         {-half, half - span, -span / 2}) {
                        auto a = fill_args(c, half, j_first, frac, lut);
                        const double* wt = even ? a.even : a.odd;
                        std::vector<double> ref(n), both_e(n), both_o(n),
                            got(n);
                        half_fill(scalar_ops(), h, a, n, ref.data());
                        ops->pnbs_fill(a, n, both_e.data(), both_o.data());
                        const auto& both = even ? both_e : both_o;
                        // The other stream's inputs must not be read.
                        auto blind = a;
                        double* other = even ? blind.odd : blind.even;
                        std::fill(other, other + 4, nan);
                        if (even)
                            blind.d_frac = nan;
                        half_fill(*ops, h, blind, n, got.data());
                        for (std::size_t i = 0; i < n; ++i) {
                            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                                      std::bit_cast<std::uint64_t>(both[i]))
                                << ops->name << " frac=" << frac
                                << " n=" << n << " i=" << i;
                            const long j = j_first + static_cast<long>(i);
                            if (j == j_x)
                                continue; // patched by the caller
                            const double fj = frac - static_cast<double>(j);
                            const double x = even ? fj : c.d_frac - fj;
                            double mag = 0.0;
                            const double terms[4] = {a.c0[i], a.s0[i],
                                                     a.c1[i], a.s1[i]};
                            for (int m = 0; m < 4; ++m)
                                mag += std::abs(wt[m] * terms[m]);
                            EXPECT_LE(std::abs(got[i] - ref[i]),
                                      fill_rel_bound * lut(x * a.inv_span) *
                                          mag / std::abs(x))
                                << ops->name << " frac=" << frac
                                << " n=" << n << " j=" << j;
                        }
                    }
                }
            }
        }
    }
}

/// Weights that make every numerator of the half equal its divisor, so
/// each coefficient is the bare window read at the stream's distance.
void check_half_fill_window(fill_half h, std::uint64_t seed) {
    const bool even = h == fill_half::even;
    rng gen(seed);
    for (const std::size_t res : {std::size_t{2048}, std::size_t{1000}}) {
        const dsp::kaiser_lut lut(8.0, res);
        for (const auto* ops : kernel_backend::available()) {
            for (int rep = 0; rep < 200; ++rep) {
                const double frac = gen.uniform(-0.5, 0.5);
                const auto j_first =
                    static_cast<double>(gen.uniform_int(-45, 0));
                const double d_frac = gen.uniform(0.01, 0.99);
                const double inv_span = gen.uniform(0.01, 0.05);
                const std::size_t n = 67;
                std::vector<double> x(n), zero(n, 0.0), out(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const double fj =
                        frac - (j_first + static_cast<double>(i));
                    x[i] = even ? fj : d_frac - fj;
                }
                simd::pnbs_fill_args a{};
                a.c0 = x.data();
                a.s0 = zero.data();
                a.c1 = zero.data();
                a.s1 = zero.data();
                a.window = lut.table().data();
                a.window_res = static_cast<double>(lut.resolution());
                a.frac = frac;
                a.j_first = j_first;
                a.d_frac = d_frac;
                a.inv_span = inv_span;
                (even ? a.even : a.odd)[0] = 1.0;
                half_fill(*ops, h, a, n, out.data());
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                              std::bit_cast<std::uint64_t>(
                                  lut(x[i] * inv_span)))
                        << ops->name << " res=" << res
                        << " u=" << x[i] * inv_span;
            }
        }
    }
}

TEST(BackendEquivalence, PnbsOddFillMatchesScalarWithinDocumentedBound) {
    check_half_fill_bound(fill_half::odd);
}

TEST(BackendEquivalence, PnbsEvenFillMatchesScalarWithinDocumentedBound) {
    check_half_fill_bound(fill_half::even);
}

TEST(BackendEquivalence, PnbsOddFillWindowIsBitIdenticalToKaiserLut) {
    check_half_fill_window(fill_half::odd, 0x3A16);
}

TEST(BackendEquivalence, PnbsEvenFillWindowIsBitIdenticalToKaiserLut) {
    check_half_fill_window(fill_half::even, 0x3A17);
}

// ---------------------------------------------------------------------------
// Object-level equivalence: the hot-path classes rebuilt under every forced
// backend agree with their scalar-forced twins.
// ---------------------------------------------------------------------------

/// Restores auto-detection when a test forced backends.
struct backend_restore {
    ~backend_restore() { kernel_backend::reset(); }
};

TEST(BackendEquivalence, InterpolatorAgreesWithScalarBackendBuild) {
    backend_restore restore;
    rng gen(0x517C);
    const double fs = 100.0 * MHz;
    std::vector<double> x(512);
    for (auto& v : x)
        v = gen.uniform(-1.0, 1.0);
    std::vector<double> probes(500);
    const double span = static_cast<double>(x.size()) / fs;
    for (auto& t : probes)
        t = gen.uniform(-0.05 * span, 1.05 * span); // includes edge clamping

    kernel_backend::force("scalar");
    const dsp::real_interpolator scalar_interp(x, fs, 32, 10.0);
    const auto ref = scalar_interp.at(probes);

    for (const auto* ops : simd_backends()) {
        kernel_backend::force(ops->name);
        const dsp::real_interpolator interp(x, fs, 32, 10.0);
        ASSERT_STREQ(interp.backend().name, ops->name);
        const auto got = interp.at(probes);
        for (std::size_t i = 0; i < probes.size(); ++i)
            EXPECT_NEAR(got[i], ref[i], 1e-12)
                << ops->name << " t=" << probes[i];
    }
}

TEST(BackendEquivalence, PnbsReconstructorAgreesWithScalarBackendBuild) {
    backend_restore restore;
    const sampling::band_spec band =
        sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const std::size_t n = 300;
    rng gen(0x9B5);
    std::vector<double> even(n), odd(n);
    for (std::size_t k = 0; k < n; ++k) {
        even[k] = gen.uniform(-1.0, 1.0);
        odd[k] = gen.uniform(-1.0, 1.0);
    }

    kernel_backend::force("scalar");
    const sampling::pnbs_reconstructor scalar_recon(even, odd, period, 0.0,
                                                    band, d, {61, 8.0});
    rng probe(0x9B6);
    std::vector<double> ts(400);
    for (auto& t : ts)
        t = probe.uniform(scalar_recon.valid_begin(),
                          scalar_recon.valid_end());

    for (const auto* ops : simd_backends()) {
        kernel_backend::force(ops->name);
        const sampling::pnbs_reconstructor recon(even, odd, period, 0.0,
                                                 band, d, {61, 8.0});
        ASSERT_STREQ(recon.backend().name, ops->name);
        for (const double t : ts)
            EXPECT_NEAR(recon.value(t), scalar_recon.value(t), 1e-11)
                << ops->name << " t=" << t;
    }
}

TEST(BackendEquivalence, PnbsFillPerPointEqualsBatchOnEveryBackend) {
    // uniform() evaluates through the same fill as value(), so it stays
    // bit-identical to per-point evaluation under every backend.
    backend_restore restore;
    const sampling::band_spec band =
        sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = 250.0 * ps;
    const std::size_t n = 200;
    rng gen(0x9B7);
    std::vector<double> even(n), odd(n);
    for (std::size_t k = 0; k < n; ++k) {
        even[k] = gen.uniform(-1.0, 1.0);
        odd[k] = gen.uniform(-1.0, 1.0);
    }
    for (const auto* ops : kernel_backend::available()) {
        kernel_backend::force(ops->name);
        const sampling::pnbs_reconstructor recon(even, odd, period, 0.0, band,
                                                 d, {61, 8.0});
        ASSERT_STREQ(recon.backend().name, ops->name);
        const double t0 = recon.valid_begin();
        const double rate = 500.0 / (recon.valid_end() - t0);
        const auto grid = recon.uniform(t0, rate, 500);
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(grid[i],
                      recon.value(t0 + static_cast<double>(i) / rate))
                << ops->name << " " << i;
    }
}

TEST(BackendEquivalence, CapturePathIsBitIdenticalAcrossBackendQuantise) {
    // envelope values() = batch interp (bounded) + carrier mix and
    // quantisation (bit-identical): with the same interpolator output the
    // capture record must match scalar exactly; with backend-built
    // interpolators it must match within the blend_dot bound.  Lock the
    // second, end-to-end form here.
    backend_restore restore;
    rng gen(0xCAB);
    const double env_rate = 180.0 * MHz;
    std::vector<std::complex<double>> env(1024);
    for (auto& v : env)
        v = {gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};

    kernel_backend::force("scalar");
    const rf::envelope_passband scalar_sig(env, env_rate, 1.0 * GHz);
    std::vector<double> t(600);
    for (auto& ti : t)
        ti = gen.uniform(scalar_sig.begin_time(), scalar_sig.end_time());
    const auto ref = scalar_sig.values(t);

    for (const auto* ops : simd_backends()) {
        kernel_backend::force(ops->name);
        const rf::envelope_passband sig(env, env_rate, 1.0 * GHz);
        const auto got = sig.values(t);
        for (std::size_t i = 0; i < t.size(); ++i)
            EXPECT_NEAR(got[i], ref[i], 1e-12) << ops->name;
        // Batch and per-instant evaluation agree bit-for-bit under every
        // backend (the PR 2 invariant, now per backend).
        for (std::size_t i = 0; i < 50; ++i)
            EXPECT_EQ(got[i], sig.value(t[i])) << ops->name;
    }
}

} // namespace
