// Welch PSD estimator: power calibration, density scaling, layouts.  Real
// test signals enter as complex records with a zero imaginary part, whose
// two-sided PSD splits each line's power evenly between ±f.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/psd.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::dsp;
using cvec = std::vector<std::complex<double>>;

/// n i.i.d. N(0, sigma^2) real samples in a complex record.
cvec real_noise(rng& gen, std::size_t n, double sigma = 1.0) {
    cvec x(n);
    for (auto& v : x)
        v = gen.gaussian(0.0, sigma);
    return x;
}

TEST(WelchPsd, TonePowerIsCalibrated) {
    // A real tone of amplitude A carries power A^2/2, half of it in each
    // of the lines at ±f0; integrating the PSD around each must return it.
    const double fs = 1.0 * MHz;
    const double f0 = 123.4 * kHz;
    const double a = 0.7;
    cvec x(16384);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = a * std::cos(two_pi * f0 * static_cast<double>(n) / fs);
    welch_options opt;
    opt.segment_length = 1024;
    const auto psd = welch_psd(x, fs, opt);
    EXPECT_NEAR(psd.band_power(f0 - 20.0 * kHz, f0 + 20.0 * kHz),
                a * a / 4.0, 0.02 * a * a / 4.0);
    EXPECT_NEAR(psd.band_power(-f0 - 20.0 * kHz, -f0 + 20.0 * kHz),
                a * a / 4.0, 0.02 * a * a / 4.0);
    // Noise-free away from the tone.
    EXPECT_LT(psd.band_power(300.0 * kHz, 400.0 * kHz), 1e-9);
}

TEST(WelchPsd, WhiteNoiseDensityMatchesVariance) {
    // White Gaussian noise of variance s^2 has two-sided density s^2/fs;
    // total power integrates back to s^2.
    const double fs = 2.0 * MHz;
    const double sigma = 0.3;
    rng gen(71);
    const auto x = real_noise(gen, 1 << 16, sigma);
    welch_options opt;
    opt.segment_length = 512;
    const auto psd = welch_psd(x, fs, opt);
    const double total = psd.band_power(-fs / 2.0, fs / 2.0);
    EXPECT_NEAR(total, sigma * sigma, 0.05 * sigma * sigma);
    // Density flat: compare two distant bands.
    const double d1 = psd.band_power(100.0 * kHz, 300.0 * kHz) / (200.0 * kHz);
    const double d2 =
        psd.band_power(-900.0 * kHz, -700.0 * kHz) / (200.0 * kHz);
    EXPECT_NEAR(d1 / d2, 1.0, 0.15);
}

TEST(WelchPsd, ComplexTwoSidedLayout) {
    // Complex exponential at +f0 shows up only at positive frequency.
    const double fs = 1.0 * MHz;
    const double f0 = 200.0 * kHz;
    std::vector<std::complex<double>> x(8192);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::polar(1.0, two_pi * f0 * static_cast<double>(n) / fs);
    welch_options opt;
    opt.segment_length = 512;
    const auto psd = welch_psd(x, fs, opt);
    // Ascending frequency axis covering [-fs/2, fs/2).
    EXPECT_LT(psd.frequency.front(), 0.0);
    EXPECT_GT(psd.frequency.back(), 0.0);
    for (std::size_t i = 1; i < psd.frequency.size(); ++i)
        EXPECT_GT(psd.frequency[i], psd.frequency[i - 1]);
    EXPECT_NEAR(psd.band_power(f0 - 20.0 * kHz, f0 + 20.0 * kHz), 1.0, 0.03);
    EXPECT_LT(psd.band_power(-f0 - 20.0 * kHz, -f0 + 20.0 * kHz), 1e-9);
}

TEST(WelchPsd, PeakDensityFindsTone) {
    const double fs = 1.0 * MHz;
    cvec x(8192);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::cos(two_pi * 0.1 * static_cast<double>(n)) +
               0.01 * std::cos(two_pi * 0.35 * static_cast<double>(n));
    welch_options opt;
    opt.segment_length = 1024;
    const auto psd = welch_psd(x, fs, opt);
    const double big = psd.peak_density(50.0 * kHz, 150.0 * kHz);
    const double small = psd.peak_density(300.0 * kHz, 400.0 * kHz);
    EXPECT_NEAR(db_from_power(small / big), -40.0, 1.5);
}

TEST(WelchPsd, ResolutionBandwidthReported) {
    const cvec x(4096, 1.0);
    welch_options opt;
    opt.segment_length = 512;
    opt.window = window_kind::hann;
    const auto psd = welch_psd(x, 1.0 * MHz, opt);
    // Hann ENBW = 1.5 bins.
    EXPECT_NEAR(psd.resolution_bw, 1.5 * 1.0 * MHz / 512.0,
                0.05 * 1.0 * MHz / 512.0);
}

TEST(WelchPsd, MoreOverlapMoreSegmentsSameAnswer) {
    rng gen(5);
    const auto x = real_noise(gen, 8192);
    welch_options a;
    a.segment_length = 512;
    a.overlap = 0.0;
    welch_options b = a;
    b.overlap = 0.75;
    const auto pa = welch_psd(x, 1e6, a);
    const auto pb = welch_psd(x, 1e6, b);
    EXPECT_NEAR(pa.band_power(-5e5, 5e5) / pb.band_power(-5e5, 5e5), 1.0, 0.1);
}

TEST(WelchPsd, Preconditions) {
    const cvec x(100, 0.0);
    welch_options opt;
    opt.segment_length = 512; // longer than the record
    EXPECT_THROW(welch_psd(x, 1e6, opt), contract_violation);
    opt.segment_length = 4; // too short
    EXPECT_THROW(welch_psd(x, 1e6, opt), contract_violation);
    opt.segment_length = 64;
    opt.overlap = 1.0;
    EXPECT_THROW(welch_psd(x, 1e6, opt), contract_violation);
    opt.overlap = 0.5;
    EXPECT_THROW(welch_psd(x, -1.0, opt), contract_violation);
}

TEST(PsdResult, BandPowerEdges) {
    dsp::psd_result p;
    p.frequency = {0.0, 10.0, 20.0, 30.0};
    p.density = {1.0, 1.0, 1.0, 1.0};
    EXPECT_NEAR(p.band_power(0.0, 30.0), 40.0, 1e-12); // 4 bins × df 10
    EXPECT_NEAR(p.band_power(5.0, 25.0), 20.0, 1e-12);
    EXPECT_DOUBLE_EQ(p.band_power(100.0, 200.0), 0.0);
    EXPECT_THROW(static_cast<void>(p.band_power(10.0, 5.0)),
                 contract_violation);
}

} // namespace
