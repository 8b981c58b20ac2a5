// FFT correctness against the direct DFT, round trips, and layouts.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/fft.hpp"
#include "support/dft_reference.hpp"

namespace {

using namespace sdrbist;
using dsp::cplx;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
    rng gen(seed);
    std::vector<cplx> x(n);
    for (auto& v : x)
        v = {gen.gaussian(), gen.gaussian()};
    return x;
}

double max_error(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

// FFT sizes: powers of two use radix-2, everything else uses Bluestein.
class FftAgainstDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgainstDft, MatchesReference) {
    const std::size_t n = GetParam();
    const auto x = random_signal(n, 100 + n);
    const auto fast = dsp::fft(x);
    const auto ref = sdrbist::testing::dft_reference(x);
    EXPECT_LT(max_error(fast, ref), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftAgainstDft,
                         ::testing::Values(1, 2, 4, 8, 64, 128, 3, 5, 12, 100,
                                           255, 360),
                         [](const auto& info) {
                             std::string name = "n";
                             name += std::to_string(info.param);
                             return name;
                         });

// Inverse transform by conjugation: ifft(X) = conj(fft(conj(X))) / n.
std::vector<cplx> inverse(std::vector<cplx> x) {
    for (auto& v : x)
        v = std::conj(v);
    x = dsp::fft(std::move(x));
    const double scale = 1.0 / static_cast<double>(x.size());
    for (auto& v : x)
        v = std::conj(v) * scale;
    return x;
}

TEST(Fft, InverseRoundTrip) {
    for (std::size_t n : {16u, 100u, 513u}) {
        const auto x = random_signal(n, n);
        const auto y = inverse(dsp::fft(x));
        EXPECT_LT(max_error(x, y), 1e-10) << "n=" << n;
    }
}

TEST(Fft, SingleToneLandsInRightBin) {
    const std::size_t n = 256;
    const double fs = 1000.0;
    const std::size_t bin = 37;
    std::vector<cplx> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::polar(1.0, two_pi * static_cast<double>(bin * i) /
                                   static_cast<double>(n));
    const auto spectrum = dsp::fft(x);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == bin)
            EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-8);
        else
            EXPECT_LT(std::abs(spectrum[k]), 1e-7);
    }
    const auto freqs = dsp::fft_frequencies(n, fs);
    EXPECT_NEAR(freqs[bin], fs * static_cast<double>(bin) /
                                static_cast<double>(n), 1e-9);
}

TEST(Fft, RealInputHermitianSymmetry) {
    rng gen(5);
    std::vector<cplx> x(128);
    for (auto& v : x)
        v = gen.gaussian(); // real data: zero imaginary part
    const auto spectrum = dsp::fft(x);
    for (std::size_t k = 1; k < x.size(); ++k) {
        const cplx a = spectrum[k];
        const cplx b = std::conj(spectrum[x.size() - k]);
        EXPECT_NEAR(a.real(), b.real(), 1e-9);
        EXPECT_NEAR(a.imag(), b.imag(), 1e-9);
    }
}

TEST(Fft, ParsevalHolds) {
    const auto x = random_signal(200, 17);
    const auto spectrum = dsp::fft(x);
    double time_e = 0.0, freq_e = 0.0;
    for (const auto& v : x)
        time_e += std::norm(v);
    for (const auto& v : spectrum)
        freq_e += std::norm(v);
    EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e,
                1e-9 * time_e);
}

TEST(Fft, FrequencyLayoutAndShift) {
    const auto f = dsp::fft_frequencies(8, 800.0);
    // numpy layout: 0,100,200,300,-400,-300,-200,-100.
    EXPECT_DOUBLE_EQ(f[0], 0.0);
    EXPECT_DOUBLE_EQ(f[3], 300.0);
    EXPECT_DOUBLE_EQ(f[4], -400.0);
    EXPECT_DOUBLE_EQ(f[7], -100.0);
    const auto shifted = dsp::fftshift(f);
    EXPECT_DOUBLE_EQ(shifted.front(), -400.0);
    EXPECT_DOUBLE_EQ(shifted.back(), 300.0);
    // Ascending after the shift.
    for (std::size_t i = 1; i < shifted.size(); ++i)
        EXPECT_GT(shifted[i], shifted[i - 1]);
}

TEST(Fft, OddLengthShiftLayout) {
    const auto f = dsp::fftshift(dsp::fft_frequencies(5, 500.0));
    // 5-point: -200,-100,0,100,200.
    EXPECT_DOUBLE_EQ(f[0], -200.0);
    EXPECT_DOUBLE_EQ(f[2], 0.0);
    EXPECT_DOUBLE_EQ(f[4], 200.0);
}

TEST(Fft, EmptyInputRejected) {
    EXPECT_THROW(dsp::fft({}), contract_violation);
}

} // namespace
