// SRRC pulse-shaping properties (paper stimulus: alpha = 0.5).
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/units.hpp"
#include "waveform/srrc.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::waveform;

/// Raised-cosine (full Nyquist) pulse at t symbol periods: the
/// autocorrelation the SRRC must reproduce.
double raised_cosine_value(double t, double a) {
    if (std::abs(std::abs(t) - 1.0 / (2.0 * a)) < 1e-9)
        return pi / 4.0 * sinc(1.0 / (2.0 * a));
    return sinc(t) * std::cos(pi * a * t) / (1.0 - 4.0 * a * a * t * t);
}

TEST(Srrc, PeakValue) {
    // h(0) = 1 - a + 4a/pi.
    for (double a : {0.25, 0.5, 1.0})
        EXPECT_NEAR(srrc_value(0.0, a), 1.0 - a + 4.0 * a / pi, 1e-12);
}

TEST(Srrc, SingularityPointsAreFinite) {
    for (double a : {0.22, 0.5, 0.8}) {
        const double t_sing = 1.0 / (4.0 * a);
        const double v = srrc_value(t_sing, a);
        EXPECT_TRUE(std::isfinite(v));
        // Continuity around the singular point.
        EXPECT_NEAR(v, srrc_value(t_sing + 1e-7, a), 1e-4);
        EXPECT_NEAR(v, srrc_value(t_sing - 1e-7, a), 1e-4);
    }
}

TEST(Srrc, SymmetricInTime) {
    for (double t : {0.3, 0.77, 1.5, 2.25})
        EXPECT_DOUBLE_EQ(srrc_value(t, 0.5), srrc_value(-t, 0.5));
}

TEST(Srrc, UnitEnergyContinuous) {
    // integral srrc^2(u) du = RC(0) = 1 (numerical quadrature).
    const double a = 0.5;
    double acc = 0.0;
    const double dt = 1e-3;
    for (double t = -40.0; t <= 40.0; t += dt)
        acc += srrc_value(t, a) * srrc_value(t, a) * dt;
    EXPECT_NEAR(acc, 1.0, 1e-3);
}

TEST(Srrc, AutocorrelationIsRaisedCosine) {
    // SRRC * SRRC (correlation) = RC: δ at integer lags, the RC pulse
    // between them.
    const double a = 0.5;
    const double dt = 1e-3;
    for (const double lag : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}) {
        double acc = 0.0;
        for (double t = -40.0; t <= 40.0; t += dt)
            acc += srrc_value(t, a) * srrc_value(t - lag, a) * dt;
        EXPECT_NEAR(acc, raised_cosine_value(lag, a), 2e-3) << "lag=" << lag;
    }
}

TEST(RaisedCosine, NyquistZeroCrossings) {
    for (double a : {0.25, 0.5}) {
        EXPECT_NEAR(raised_cosine_value(0.0, a), 1.0, 1e-12);
        for (int n = 1; n <= 6; ++n)
            EXPECT_NEAR(raised_cosine_value(n, a), 0.0, 1e-12) << "n=" << n;
        // Singularity at 1/(2a) finite and continuous.
        const double ts = 1.0 / (2.0 * a);
        EXPECT_TRUE(std::isfinite(raised_cosine_value(ts, a)));
        EXPECT_NEAR(raised_cosine_value(ts, a),
                    raised_cosine_value(ts + 1e-7, a), 1e-4);
    }
}

TEST(SrrcTaps, NormalisedToUnitEnergy) {
    const auto h = srrc_taps(0.5, 16, 8);
    EXPECT_EQ(h.size(), 2u * 8u * 16u + 1u);
    double e = 0.0;
    for (double v : h)
        e += v * v;
    EXPECT_NEAR(e, 1.0, 1e-12);
    // Peak in the middle.
    const std::size_t mid = h.size() / 2;
    for (double v : h)
        EXPECT_LE(std::abs(v), h[mid] + 1e-12);
}

TEST(SrrcTaps, CascadeIsIsiFree) {
    // SRRC -> matched SRRC sampled at symbol instants must be ~δ (ISI-free).
    const std::size_t os = 8;
    const auto h = srrc_taps(0.5, os, 10);
    // Discrete autocorrelation at multiples of the symbol period.
    auto corr_at = [&](int lag_symbols) {
        const long lag = static_cast<long>(lag_symbols) * static_cast<long>(os);
        double acc = 0.0;
        for (long i = 0; i < static_cast<long>(h.size()); ++i) {
            const long j = i + lag;
            if (j >= 0 && j < static_cast<long>(h.size()))
                acc += h[static_cast<std::size_t>(i)] *
                       h[static_cast<std::size_t>(j)];
        }
        return acc;
    };
    EXPECT_NEAR(corr_at(0), 1.0, 1e-6);
    for (int lag = 1; lag <= 5; ++lag)
        EXPECT_NEAR(corr_at(lag), 0.0, 3e-3) << "lag=" << lag;
}

TEST(SrrcTaps, Preconditions) {
    EXPECT_THROW(srrc_taps(0.0, 8, 8), contract_violation);
    EXPECT_THROW(srrc_taps(1.5, 8, 8), contract_violation);
    EXPECT_THROW(srrc_taps(0.5, 1, 8), contract_violation);
    EXPECT_THROW(srrc_taps(0.5, 8, 1), contract_violation);
}

} // namespace
