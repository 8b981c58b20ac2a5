// Accuracy regression for the polyphase-LUT windowed-sinc fast path
// against the exact transcendental yardstick (support/interp_yardstick.hpp),
// plus the bit-for-bit guarantee of the batch entry point.  Real test
// signals enter as complex samples with a zero imaginary part.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/interpolator.hpp"
#include "support/interp_yardstick.hpp"

namespace {

using namespace sdrbist;
using dsp::sinc_interpolator;
using sdrbist::testing::interp_reference;
using cvec = std::vector<std::complex<double>>;

cvec bandlimited_signal(std::size_t n, double fs,
                                       std::uint64_t seed) {
    // Multitone well inside the first Nyquist zone.
    rng gen(seed);
    std::vector<double> f(7), a(7), p(7);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = gen.uniform(0.01 * fs, 0.35 * fs);
        a[i] = gen.uniform(0.2, 1.0);
        p[i] = gen.uniform(0.0, two_pi);
    }
    cvec x(n);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < f.size(); ++i)
            x[k] += a[i] * std::cos(two_pi * f[i] *
                                        static_cast<double>(k) / fs +
                                    p[i]);
    return x;
}

double signal_rms(const cvec& x) {
    double acc = 0.0;
    for (const auto& v : x)
        acc += std::norm(v);
    return std::sqrt(acc / static_cast<double>(x.size()));
}

TEST(SincInterpolatorFastPath, MatchesReferenceOnInBandSignal) {
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(512, fs, 0xFA57);
    const double scale = signal_rms(x);
    const sinc_interpolator interp(x, fs, 32, 10.0);

    rng gen(0x11);
    double worst = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double t = gen.uniform(interp.valid_begin(),
                                     interp.valid_end());
        worst = std::max(worst, std::abs(interp.at(t) -
                                         interp_reference(
                                             x, fs, 32, 10.0, t)));
    }
    EXPECT_LT(worst / scale, 1e-9);
}

TEST(SincInterpolatorFastPath, MatchesReferenceAtRecordEdges) {
    // The clamped-loop edge path must agree with the yardstick's
    // skip-out-of-range semantics, including instants outside the record.
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(256, fs, 0xED6E);
    const double scale = signal_rms(x);
    const sinc_interpolator interp(x, fs, 16, 8.0);

    rng gen(0x12);
    const double span = static_cast<double>(x.size()) / fs;
    double worst = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double t = gen.uniform(-0.1 * span, 1.1 * span);
        worst = std::max(worst, std::abs(interp.at(t) -
                                         interp_reference(
                                             x, fs, 16, 8.0, t)));
    }
    EXPECT_LT(worst / scale, 1e-9);
}

TEST(SincInterpolatorFastPath, ComplexMatchesReference) {
    const double fs = 160.0 * MHz;
    cvec x(512);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double tt = static_cast<double>(i) / fs;
        x[i] = std::polar(1.0, two_pi * 9.0 * MHz * tt) +
               std::polar(0.5, -two_pi * 21.0 * MHz * tt + 0.7);
    }
    const sinc_interpolator interp(x, fs, 32, 10.0);
    rng gen(0x13);
    double worst = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double t = gen.uniform(interp.valid_begin(),
                                     interp.valid_end());
        worst = std::max(worst,
                         std::abs(interp.at(t) -
                                  interp_reference(
                                      x, fs, 32, 10.0, t)));
    }
    EXPECT_LT(worst, 1e-9);
}

TEST(SincInterpolatorFastPath, ExactAtSampleInstants) {
    // frac = 0 hits a LUT node, so sample instants stay exact (the cubic
    // blend weights collapse to the node row).
    const double fs = 50.0 * MHz;
    const auto x = bandlimited_signal(300, fs, 0x5A);
    const sinc_interpolator interp(x, fs, 16, 9.0);
    for (std::size_t k = 40; k < 80; ++k)
        EXPECT_NEAR(std::abs(interp.at(static_cast<double>(k) / fs) - x[k]),
                    0.0, 1e-9)
            << k;
}

TEST(SincInterpolatorFastPath, BatchIsBitIdenticalToScalar) {
    const double fs = 80.0 * MHz;
    const auto x = bandlimited_signal(256, fs, 0xBA7C);
    const sinc_interpolator interp(x, fs, 16, 8.0);
    rng gen(0x14);
    std::vector<double> t(257);
    for (auto& v : t)
        v = gen.uniform(0.0, static_cast<double>(x.size()) / fs);
    const auto batch = interp.at(t);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(batch[i], interp.at(t[i])) << i;
}

TEST(SincInterpolatorFastPath, PhaseResolutionControlsLutError) {
    // The blend error falls as phase_steps^-4; a very coarse table must be
    // measurably worse than the default, and the default essentially exact.
    const double fs = 100.0 * MHz;
    const auto x = bandlimited_signal(512, fs, 0x9D);
    const double scale = signal_rms(x);
    const sinc_interpolator coarse(x, fs, 32, 10.0, 64);
    const sinc_interpolator fine(x, fs, 32, 10.0, 1024);

    rng gen(0x15);
    double worst_coarse = 0.0;
    double worst_fine = 0.0;
    for (int i = 0; i < 1500; ++i) {
        const double t = gen.uniform(coarse.valid_begin(),
                                     coarse.valid_end());
        const auto ref =
            interp_reference(x, fs, 32, 10.0, t);
        worst_coarse = std::max(worst_coarse, std::abs(coarse.at(t) - ref));
        worst_fine = std::max(worst_fine, std::abs(fine.at(t) - ref));
    }
    EXPECT_LT(worst_fine, worst_coarse);
    EXPECT_LT(worst_fine / scale, 1e-11);
    // Even the coarse table is far below the kernel's stopband floor.
    EXPECT_LT(worst_coarse / scale, 1e-5);
}

TEST(SincInterpolatorFastPath, StopbandFloorPreserved) {
    // The LUT path must keep the windowed-sinc kernel's reconstruction
    // quality: a mid-band tone reproduces to the window's stopband floor.
    const double fs = 100.0 * MHz;
    const double f = 5.0 * MHz;
    cvec x(512);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::cos(two_pi * f * static_cast<double>(i) / fs + 0.3);
    const sinc_interpolator interp(x, fs, 32, 10.0);
    double err = 0.0;
    for (double t = interp.valid_begin(); t < interp.valid_end();
         t += 0.313 / fs)
        err = std::max(err,
                       std::abs(interp.at(t) - std::cos(two_pi * f * t + 0.3)));
    EXPECT_LT(err, 1e-5);
}

} // namespace
