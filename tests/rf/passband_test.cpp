// Passband signal abstraction: multitone exactness and envelope upconversion.
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "rf/passband.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::rf;

TEST(Multitone, ExactEvaluation) {
    const multitone_signal sig({{100.0 * MHz, 2.0, 0.3}}, 1.0 * us);
    for (double t : {0.0, 1.0 * ns, 7.77 * ns}) {
        EXPECT_NEAR(sig.value(t), 2.0 * std::cos(two_pi * 100.0 * MHz * t + 0.3),
                    1e-12);
    }
    EXPECT_EQ(sig.tones().size(), 1u);
    EXPECT_DOUBLE_EQ(sig.begin_time(), 0.0);
    EXPECT_DOUBLE_EQ(sig.end_time(), 1.0 * us);
}

TEST(Multitone, SuperpositionOfTones) {
    const multitone_signal sig(
        {{1.0 * GHz, 1.0, 0.0}, {1.01 * GHz, 0.5, 1.0}}, 1.0 * us);
    const double t = 13.1 * ns;
    const double expect = std::cos(two_pi * 1.0 * GHz * t) +
                          0.5 * std::cos(two_pi * 1.01 * GHz * t + 1.0);
    EXPECT_NEAR(sig.value(t), expect, 1e-12);
}

TEST(Multitone, Preconditions) {
    EXPECT_THROW(multitone_signal({}, 1.0), contract_violation);
    EXPECT_THROW(multitone_signal({{0.0, 1.0, 0.0}}, 1.0),
                 contract_violation);
    EXPECT_THROW(multitone_signal({{1e9, 1.0, 0.0}}, -1.0),
                 contract_violation);
}

TEST(EnvelopePassband, ReproducesToneFromEnvelope) {
    // Envelope = complex exponential at f_off -> passband tone at fc + f_off.
    const double fs = 200.0 * MHz;
    const double f_off = 10.0 * MHz;
    const double fc = 1.0 * GHz;
    const std::size_t n = 2048;
    std::vector<std::complex<double>> env(n);
    for (std::size_t i = 0; i < n; ++i)
        env[i] = std::polar(1.0, two_pi * f_off * static_cast<double>(i) / fs);
    const envelope_passband sig(std::move(env), fs, fc);

    for (double t :
         {sig.begin_time() + 0.1 * us, sig.begin_time() + 0.73 * us}) {
        const double expect = std::cos(two_pi * (fc + f_off) * t);
        EXPECT_NEAR(sig.value(t), expect, 2e-4) << "t=" << t;
    }
}

TEST(EnvelopePassband, EnvelopeInterpolationAccuracy) {
    // A smooth (oversampled) envelope is interpolated to ~1e-5.
    const double fs = 160.0 * MHz;
    const double f_mod = 5.0 * MHz; // 32x oversampled
    const std::size_t n = 4096;
    std::vector<std::complex<double>> env(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / fs;
        env[i] = {std::cos(two_pi * f_mod * t), std::sin(two_pi * f_mod * t)};
    }
    const envelope_passband sig(std::move(env), fs, 1.0 * GHz);
    for (double t = sig.begin_time() + 1.0 * us; t < sig.begin_time() + 2.0 * us;
         t += 0.173 * us) {
        // Re{E(t)·e^{j2πfc·t}} with the exact envelope.
        const std::complex<double> expect =
            std::polar(1.0, two_pi * f_mod * t) *
            std::polar(1.0, two_pi * 1.0 * GHz * t);
        EXPECT_NEAR(sig.value(t), expect.real(), 1e-5);
    }
}

TEST(EnvelopePassband, ValidSpanExcludesEdges) {
    std::vector<std::complex<double>> env(256, {1.0, 0.0});
    const envelope_passband sig(std::move(env), 100.0 * MHz, 1.0 * GHz);
    EXPECT_GT(sig.begin_time(), 0.0);
    EXPECT_LT(sig.end_time(), 256.0 / (100.0 * MHz));
    EXPECT_LT(sig.begin_time(), sig.end_time());
}

} // namespace
