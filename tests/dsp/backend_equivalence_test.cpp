// Cross-backend equivalence lockdown: every compiled-in, CPU-supported
// SIMD backend is run against the scalar reference backend over randomised
// record shapes — lengths 0, 1, sub-vector-width, tail remainders and
// unaligned pointer offsets — and must honour the per-kernel accuracy
// contract of kernel_backend.hpp:
//
//  * dot / blend_dot / blend_dot_cplx: reassociated accumulation,
//    deviation ≤ 1e-12 relative to Σ|aᵢ·bᵢ| (the documented ULP-style
//    bound; the true reassociation error is ~n·eps of that magnitude);
//  * quantize_midrise / carrier_mix: bit-identical.
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

TEST(BackendEquivalence, DotMatchesScalarWithinDocumentedBound) {
    rng gen(0xD07);
    for (const auto* ops : simd_backends()) {
        for (const std::size_t n : lengths) {
            for (const std::size_t off : offsets) {
                const auto a = random_record(gen, n + off);
                const auto b = random_record(gen, n + off, -1.0, 1.0);
                const double* pa = a.data() + off;
                const double* pb = b.data() + off;
                const double ref = scalar_ops().dot(pa, pb, n);
                const double got = ops->dot(pa, pb, n);
                double mag = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    mag += std::abs(pa[i] * pb[i]);
                EXPECT_LE(std::abs(got - ref), accum_rel_bound * mag)
                    << ops->name << " n=" << n << " off=" << off;
                // Deterministic: same inputs, same result, call after call.
                EXPECT_EQ(got, ops->dot(pa, pb, n))
                    << ops->name << " n=" << n << " off=" << off;
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
