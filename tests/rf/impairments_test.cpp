// Analog impairment model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "rf/impairments.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::rf;
using sdrbist::testing::variance;

cvec test_tone(double f_norm, std::size_t n) {
    cvec x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::polar(1.0, two_pi * f_norm * static_cast<double>(i));
    return x;
}

// Image-rejection ratio an I/Q imbalance implies, dB:
// IRR = |mu|^2/|nu|^2, mu = (1 + g·e^{j·phi})/2, nu = (1 - g·e^{j·phi})/2.
double predicted_irr_db(const iq_imbalance& imb) {
    const double g = amplitude_from_db(imb.gain_db);
    const std::complex<double> ge =
        g * std::polar(1.0, imb.phase_deg * pi / 180.0);
    const double den = std::norm(1.0 - ge);
    if (den < 1e-30)
        return 300.0; // ideal quadrature: effectively infinite rejection
    return db_from_power(std::norm(1.0 + ge) / den);
}

// Power of the complex exponential at normalised frequency f in x.
double tone_power(const cvec& x, double f_norm) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += x[i] * std::polar(1.0, -two_pi * f_norm *
                                          static_cast<double>(i));
    return std::norm(acc / static_cast<double>(x.size()));
}

TEST(IqImbalance, IdealIsTransparent) {
    const iq_imbalance ideal{0.0, 0.0};
    const auto x = test_tone(0.1, 256);
    const auto y = ideal.apply(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_LT(std::abs(y[i] - x[i]), 1e-12);
}

TEST(IqImbalance, CreatesImageAtPredictedLevel) {
    // A positive-frequency tone acquires an image at the negative
    // frequency, suppressed by the image-rejection ratio.
    const iq_imbalance imb{1.0, 5.0};
    const auto x = test_tone(0.1, 4096);
    const auto y = imb.apply(x);
    const double signal = tone_power(y, 0.1);
    const double image = tone_power(y, -0.1);
    EXPECT_NEAR(db_from_power(signal / image), predicted_irr_db(imb), 0.5);
}

TEST(IqImbalance, IrrFormulaSanity) {
    // No imbalance -> infinite IRR (huge number); typical values match
    // textbook: 1 dB / 5 degrees -> ~ 20-25 dB.
    EXPECT_GT(predicted_irr_db({0.0, 0.0}), 100.0);
    const double irr = predicted_irr_db({1.0, 5.0});
    EXPECT_GT(irr, 18.0);
    EXPECT_LT(irr, 30.0);
    // Worse imbalance, worse IRR.
    EXPECT_LT(predicted_irr_db({2.0, 10.0}), irr);
}

TEST(LoLeakage, AddsCarrierAtRequestedLevel) {
    const lo_leakage leak{-20.0, 0.0};
    // A zero-mean tone over whole periods: the added DC is exactly the
    // leakage phasor.
    const auto x = test_tone(0.25, 4096);
    const auto y = leak.apply(x);
    // DC component: mean of y.
    std::complex<double> dc{0.0, 0.0};
    for (const auto& v : y)
        dc += v;
    dc /= static_cast<double>(y.size());
    const double rms_in = envelope_rms(x);
    EXPECT_NEAR(db_from_amplitude(std::abs(dc) / rms_in), -20.0, 0.5);
}

TEST(PhaseNoise, VarianceGrowsLinearly) {
    // Wiener phase noise: var(phi[n]) = 2π·lw·n/fs.
    const phase_noise pn{1.0 * kHz};
    const double fs = 10.0 * MHz;
    const std::size_t n = 20000;
    std::vector<double> end_phases;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        rng gen(seed * 97 + 1);
        const auto traj = pn.trajectory(n, fs, gen);
        end_phases.push_back(traj.back());
    }
    const double expect_var =
        two_pi * 1.0 * kHz / fs * static_cast<double>(n - 1);
    EXPECT_NEAR(variance(end_phases), expect_var, 0.5 * expect_var);
}

TEST(PhaseNoise, PreservesMagnitude) {
    const phase_noise pn{100.0 * kHz};
    rng gen(9);
    const auto x = test_tone(0.05, 512);
    const auto y = pn.apply(x, 10.0 * MHz, gen);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(std::abs(y[i]), std::abs(x[i]), 1e-12);
}

TEST(PhaseNoise, ZeroLinewidthIsIdentity) {
    const phase_noise pn{0.0};
    rng gen(1);
    const auto x = test_tone(0.05, 64);
    const auto y = pn.apply(x, 1.0 * MHz, gen);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(y[i], x[i]);
}

TEST(ThermalNoise, HitsTargetSnr) {
    const thermal_noise nz{20.0};
    rng gen(17);
    const auto x = test_tone(0.07, 8192);
    const auto y = nz.apply(x, gen);
    double noise_p = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        noise_p += std::norm(y[i] - x[i]);
    noise_p /= static_cast<double>(x.size());
    EXPECT_NEAR(db_from_power(1.0 / noise_p), 20.0, 0.5);
}

TEST(EnvelopeRms, KnownValues) {
    cvec x{{3.0, 4.0}, {0.0, 0.0}};
    EXPECT_NEAR(envelope_rms(x), 5.0 / std::sqrt(2.0), 1e-12);
    EXPECT_THROW(envelope_rms(cvec{}), contract_violation);
}

} // namespace
