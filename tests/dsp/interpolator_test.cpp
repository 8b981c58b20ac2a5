// Bandlimited (windowed-sinc) interpolation tests — the bridge between
// discrete envelopes and the "analog" waveform the sampler probes.  Real
// test signals enter as complex samples with a zero imaginary part.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <thread>
#include <vector>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "dsp/interpolator.hpp"

namespace {

using namespace sdrbist;
using dsp::sinc_interpolator;
using cvec = std::vector<std::complex<double>>;

TEST(SincInterpolator, ExactAtSamplePoints) {
    const double fs = 100.0 * MHz;
    cvec x(256);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::sin(0.37 * static_cast<double>(i));
    const sinc_interpolator interp(x, fs, 16, 10.0);
    for (std::size_t k = 40; k < 60; ++k)
        EXPECT_NEAR(std::abs(interp.at(static_cast<double>(k) / fs) - x[k]),
                    0.0, 1e-6);
}

TEST(SincInterpolator, ToneAccuracyVsOversampling) {
    // Interpolation error falls as the tone moves away from Nyquist.
    const double fs = 100.0 * MHz;
    double prev_err = 1.0;
    for (const double f : {30.0 * MHz, 15.0 * MHz, 5.0 * MHz}) {
        cvec x(512);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = std::cos(two_pi * f * static_cast<double>(i) / fs + 0.3);
        const sinc_interpolator interp(x, fs, 32, 10.0);
        double err = 0.0;
        int n = 0;
        for (double t = interp.valid_begin(); t < interp.valid_end();
             t += 0.313 / fs) {
            err = std::max(err,
                           std::abs(interp.at(t) -
                                    std::cos(two_pi * f * t + 0.3)));
            ++n;
        }
        ASSERT_GT(n, 100);
        // Error falls towards (and bottoms out at) the window's stopband
        // floor of a few 1e-6.
        EXPECT_LT(err, prev_err * 1.5) << f;
        prev_err = err;
    }
    EXPECT_LT(prev_err, 1e-5);
}

TEST(SincInterpolator, ComplexEnvelopeRoundTrip) {
    const double fs = 160.0 * MHz;
    const double f_mod = 7.0 * MHz;
    cvec x(1024);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::polar(1.0, two_pi * f_mod * static_cast<double>(i) / fs);
    const sinc_interpolator interp(x, fs, 32, 10.0);
    for (double t = interp.valid_begin() + 0.3 * us;
         t < interp.valid_begin() + 1.0 * us; t += 37.0 * ns) {
        const auto expect = std::polar(1.0, two_pi * f_mod * t);
        EXPECT_LT(std::abs(interp.at(t) - expect), 1e-5);
    }
}

TEST(SincInterpolator, ValidSpanGeometry) {
    const cvec x(200, 1.0);
    const sinc_interpolator interp(x, 1e6, 16, 8.0);
    EXPECT_DOUBLE_EQ(interp.valid_begin(), 16e-6);
    EXPECT_DOUBLE_EQ(interp.valid_end(), (200.0 - 17.0) * 1e-6);
    EXPECT_EQ(interp.size(), 200u);
    EXPECT_DOUBLE_EQ(interp.rate(), 1e6);
}

TEST(SincInterpolator, BatchMatchesScalar) {
    cvec x(128);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::polar(1.0, 0.21 * static_cast<double>(i));
    const sinc_interpolator interp(x, 1e6, 8, 8.0);
    const std::vector<double> times{40e-6, 41.5e-6, 77.25e-6};
    const auto batch = interp.at(times);
    ASSERT_EQ(batch.size(), times.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(batch[i], interp.at(times[i]));
}

TEST(SincInterpolator, Preconditions) {
    const cvec x(100, 0.0);
    EXPECT_THROW(sinc_interpolator(x, -1.0, 16, 8.0), contract_violation);
    EXPECT_THROW(sinc_interpolator(x, 1e6, 2, 8.0), contract_violation);
    EXPECT_THROW(sinc_interpolator(cvec(10, 0.0), 1e6, 16, 8.0),
                 contract_violation);
}

TEST(SincInterpolatorLut, SharedLutEqualsFreshBuild) {
    const cvec x(200, 1.0);
    for (const std::size_t half : {std::size_t{8}, std::size_t{32}}) {
        const sinc_interpolator interp(x, 1e6, half, 9.0, 128);
        const auto fresh = sinc_interpolator::build_lut(half, 9.0, 128);
        const auto shared = interp.lut();
        ASSERT_EQ(shared.size(), (128u + 3u) * 2u * half);
        ASSERT_EQ(fresh.size(), shared.size());
        for (std::size_t i = 0; i < shared.size(); ++i)
            EXPECT_EQ(shared[i], fresh[i]) << "half=" << half << " i=" << i;
    }
}

TEST(SincInterpolatorLut, EqualParametersShareOneTable) {
    const cvec x(300, 0.5);
    const cvec xc(300, {0.5, -0.25});
    const sinc_interpolator a(x, 100.0 * MHz);
    const sinc_interpolator b(x, 37.0 * MHz); // rate does not enter the LUT
    const sinc_interpolator c(xc, 100.0 * MHz); // nor do the samples
    EXPECT_EQ(a.lut().data(), b.lut().data());
    EXPECT_EQ(a.lut().data(), c.lut().data());

    const sinc_interpolator other_beta(x, 100.0 * MHz, 32, 10.5);
    const sinc_interpolator other_half(x, 100.0 * MHz, 16, 10.0);
    const sinc_interpolator other_steps(x, 100.0 * MHz, 32, 10.0, 512);
    EXPECT_NE(a.lut().data(), other_beta.lut().data());
    EXPECT_NE(a.lut().data(), other_half.lut().data());
    EXPECT_NE(a.lut().data(), other_steps.lut().data());
}

TEST(SincInterpolatorLut, ConcurrentConstructionSharesOneTable) {
    // A parameter set no other test uses, so the eight threads race on its
    // first build.
    constexpr int n_threads = 8;
    std::vector<const double*> seen(n_threads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < n_threads) {
            }
            const sinc_interpolator interp(cvec(64, {1.0, 0.0}), 1e6, 12,
                                           7.75, 96);
            seen[static_cast<std::size_t>(t)] = interp.lut().data();
        });
    for (auto& th : threads)
        th.join();
    for (const double* p : seen)
        EXPECT_EQ(p, seen.front());
}

} // namespace
