// Biquad cascade and Butterworth design tests.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "dsp/biquad.hpp"
#include "support/response_yardstick.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::dsp;
using sdrbist::testing::cascade_filter_channel;
using sdrbist::testing::cascade_response;

/// Filter a real sequence as the I channel of a complex one.
std::vector<double> filter_real(const iir_cascade& c,
                                const std::vector<double>& x) {
    std::vector<std::complex<double>> xc(x.begin(), x.end());
    const auto y = c.filter(std::span<const std::complex<double>>(xc));
    std::vector<double> out(y.size());
    for (std::size_t n = 0; n < y.size(); ++n)
        out[n] = y[n].real();
    return out;
}

TEST(Butterworth, MinusThreeDbAtCutoff) {
    for (int order : {1, 2, 3, 5, 8}) {
        auto lpf = butterworth_lowpass(order, 10.0 * MHz, 100.0 * MHz);
        const double g = std::abs(cascade_response(lpf, 0.1));
        EXPECT_NEAR(db_from_amplitude(g), -3.01, 0.1) << "order " << order;
        EXPECT_NEAR(std::abs(cascade_response(lpf, 0.0)), 1.0, 1e-9) << order;
    }
}

TEST(Butterworth, RolloffScalesWithOrder) {
    // Exact magnitude law: |H(f)|^2 = 1/(1 + (f/fc)^{2n}) — checked one
    // octave above the cutoff (bilinear warping is small at fc = fs/20).
    for (int order : {2, 4, 6}) {
        auto lpf = butterworth_lowpass(order, 5.0 * MHz, 100.0 * MHz);
        const double g2 =
            db_from_amplitude(std::abs(cascade_response(lpf, 0.10)));
        const double expect =
            -10.0 * std::log10(1.0 + std::pow(2.0, 2.0 * order));
        EXPECT_NEAR(g2, expect, 1.5) << "order " << order;
    }
}

TEST(Butterworth, MonotonePassband) {
    auto lpf = butterworth_lowpass(5, 20.0 * MHz, 100.0 * MHz);
    double prev = std::abs(cascade_response(lpf, 0.0));
    for (double f = 0.01; f <= 0.45; f += 0.01) {
        const double g = std::abs(cascade_response(lpf, f));
        EXPECT_LE(g, prev * 1.0001) << "f=" << f; // maximally flat: monotone
        prev = g;
    }
}

TEST(Butterworth, TimeDomainMatchesResponse) {
    // Filter a tone and compare the steady-state amplitude with |H|.
    auto lpf = butterworth_lowpass(3, 10.0 * MHz, 100.0 * MHz);
    const double f_norm = 0.07;
    std::vector<double> x(4000);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::cos(two_pi * f_norm * static_cast<double>(n));
    const auto y = filter_real(lpf, x);
    double peak = 0.0;
    for (std::size_t n = 2000; n < 4000; ++n)
        peak = std::max(peak, std::abs(y[n]));
    EXPECT_NEAR(peak, std::abs(cascade_response(lpf, f_norm)), 5e-3);
}

TEST(Butterworth, ImpulseResponseDecays) {
    auto lpf = butterworth_lowpass(6, 5.0 * MHz, 100.0 * MHz);
    std::vector<double> x(3000, 0.0);
    x[0] = 1.0;
    const auto y = filter_real(lpf, x);
    double tail = 0.0;
    for (std::size_t n = 2000; n < 3000; ++n)
        tail = std::max(tail, std::abs(y[n]));
    EXPECT_LT(tail, 1e-9); // stable: the impulse response has died out
}

TEST(Butterworth, ComplexFilteringMatchesPerComponent) {
    auto lpf = butterworth_lowpass(5, 10.0 * MHz, 100.0 * MHz);
    std::vector<std::complex<double>> x(500);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = {std::cos(0.3 * static_cast<double>(n)),
                std::sin(0.2 * static_cast<double>(n))};
    const auto y = lpf.filter(
        std::span<const std::complex<double>>(x.data(), x.size()));
    std::vector<double> re(x.size()), im(x.size());
    for (std::size_t n = 0; n < x.size(); ++n) {
        re[n] = x[n].real();
        im[n] = x[n].imag();
    }
    const auto yre = cascade_filter_channel(lpf, re);
    const auto yim = cascade_filter_channel(lpf, im);
    for (std::size_t n = 0; n < x.size(); ++n) {
        EXPECT_EQ(y[n].real(), yre[n]) << n; // bit for bit
        EXPECT_EQ(y[n].imag(), yim[n]) << n;
    }
    // No state carries over: a second call returns the same output.
    EXPECT_EQ(lpf.filter(std::span<const std::complex<double>>(x)), y);
}

TEST(Butterworth, SectionCounts) {
    EXPECT_EQ(butterworth_lowpass(1, 1e6, 1e7).section_count(), 1u);
    EXPECT_EQ(butterworth_lowpass(2, 1e6, 1e7).section_count(), 1u);
    EXPECT_EQ(butterworth_lowpass(5, 1e6, 1e7).section_count(), 3u);
    EXPECT_EQ(butterworth_lowpass(8, 1e6, 1e7).section_count(), 4u);
}

TEST(Butterworth, Preconditions) {
    EXPECT_THROW(butterworth_lowpass(0, 1e6, 1e7), contract_violation);
    EXPECT_THROW(butterworth_lowpass(13, 1e6, 1e7), contract_violation);
    EXPECT_THROW(butterworth_lowpass(3, 0.0, 1e7), contract_violation);
    EXPECT_THROW(butterworth_lowpass(3, 6e6, 1e7), contract_violation);
}

TEST(Biquad, PassthroughDefault) {
    const iir_cascade empty;
    const std::vector<std::complex<double>> x{{1.5, -0.5}, {0.25, 2.0}};
    EXPECT_EQ(empty.filter(std::span<const std::complex<double>>(x)), x);
    EXPECT_NEAR(std::abs(cascade_response(empty, 0.2)), 1.0, 1e-12);
}

} // namespace
