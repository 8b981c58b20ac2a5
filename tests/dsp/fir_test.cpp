// FIR design and complex-envelope filtering tests.  Real-valued data
// enters as complex samples with a zero imaginary part.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/fir.hpp"
#include "support/response_yardstick.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::dsp;
using sdrbist::testing::fir_response;
using cvec = std::vector<std::complex<double>>;

/// n i.i.d. N(0, 1) samples.
std::vector<double> gaussian_real(rng& gen, std::size_t n) {
    std::vector<double> x(n);
    for (auto& v : x)
        v = gen.gaussian();
    return x;
}

/// n samples with i.i.d. N(0, 1) real and imaginary parts.
cvec gaussian_complex(rng& gen, std::size_t n) {
    cvec x(n);
    for (auto& v : x)
        v = {gen.gaussian(), gen.gaussian()};
    return x;
}

/// Real data as a complex record (zero imaginary part).
cvec as_complex(const std::vector<double>& x) {
    return cvec(x.begin(), x.end());
}

/// Full linear convolution (output length a.size() + b.size() - 1): the
/// yardstick upfirdn is checked against.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
    std::vector<double> out(a.size() + b.size() - 1, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < b.size(); ++j)
            out[i + j] += a[i] * b[j];
    return out;
}

TEST(FirDesign, LowpassGainProfile) {
    const auto h = design_lowpass_fir(127, 0.1);
    EXPECT_NEAR(std::abs(fir_response(h, 0.0)), 1.0, 1e-12);     // DC
    EXPECT_NEAR(std::abs(fir_response(h, 0.05)), 1.0, 1e-3);     // passband
    EXPECT_NEAR(std::abs(fir_response(h, 0.1)), 0.5, 0.05);      // edge ~ -6dB
    EXPECT_LT(std::abs(fir_response(h, 0.2)), 1e-3);             // stopband
    EXPECT_LT(std::abs(fir_response(h, 0.45)), 1e-3);
}

TEST(FirDesign, LowpassLinearPhase) {
    const auto h = design_lowpass_fir(65, 0.2);
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

TEST(Convolve, KnownResult) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 1.0};
    const auto c = convolve(a, b);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_DOUBLE_EQ(c[0], 1.0);
    EXPECT_DOUBLE_EQ(c[1], 3.0);
    EXPECT_DOUBLE_EQ(c[2], 5.0);
    EXPECT_DOUBLE_EQ(c[3], 3.0);
}

TEST(FirDecimate, DelayCompensatedIdentity) {
    // A centred unit impulse as "filter" must return the input unchanged.
    std::vector<double> h(21, 0.0);
    h[10] = 1.0;
    rng gen(3);
    const auto x = gaussian_complex(gen, 100);
    const auto y = filter_decimate(h, x, 1);
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(FirDecimate, RemovesOutOfBandTone) {
    const auto h = design_lowpass_fir(101, 0.1);
    cvec x(400);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::cos(two_pi * 0.3 * static_cast<double>(n));
    const auto y = filter_decimate(h, x, 1);
    double peak = 0.0;
    for (std::size_t n = 100; n < 300; ++n)
        peak = std::max(peak, std::abs(y[n]));
    EXPECT_LT(peak, 1e-3);
}

// Reference: filter at every input sample, y[n] = (h * x)[n + half] with x
// zero-padded (ascending k, out-of-record terms skipped), then keep every
// d-th output.  filter_decimate must match it element for element.
cvec filter_then_subsample(const std::vector<double>& h, const cvec& x,
                           std::size_t d) {
    const auto half = static_cast<long>(h.size() / 2);
    const auto n_x = static_cast<long>(x.size());
    cvec full(x.size());
    for (long n = 0; n < n_x; ++n) {
        std::complex<double> acc{};
        for (long k = 0; k < static_cast<long>(h.size()); ++k) {
            const long idx = n + half - k;
            if (idx >= 0 && idx < n_x)
                acc += h[static_cast<std::size_t>(k)] *
                       x[static_cast<std::size_t>(idx)];
        }
        full[static_cast<std::size_t>(n)] = acc;
    }
    cvec out;
    for (std::size_t n = 0; n < full.size(); n += d)
        out.push_back(full[n]);
    return out;
}

void expect_same_bits(std::complex<double> a, std::complex<double> b,
                      std::size_t i) {
    EXPECT_EQ(a.real(), b.real()) << "i=" << i;
    EXPECT_EQ(a.imag(), b.imag()) << "i=" << i;
}

void expect_matches_reference(const std::vector<double>& h, const cvec& x,
                              std::size_t d) {
    SCOPED_TRACE(::testing::Message() << "taps=" << h.size()
                                      << " n=" << x.size() << " D=" << d);
    const auto ref = filter_then_subsample(h, x, d);
    const auto y = filter_decimate(h, x, d);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        expect_same_bits(y[i], ref[i], i);
}

TEST(FirDecimate, RealMatchesFilterThenSubsampleExactly) {
    rng gen(17);
    const auto h = design_lowpass_fir(151, 0.07);
    // Lengths that are and are not multiples of each D.
    for (const std::size_t n : {std::size_t{670}, std::size_t{1001}})
        for (const std::size_t d : {1, 2, 7, 67})
            expect_matches_reference(h, as_complex(gaussian_real(gen, n)), d);
}

TEST(FirDecimate, ComplexMatchesFilterThenSubsampleExactly) {
    rng gen(19);
    const auto h = design_lowpass_fir(201, 0.05);
    for (const std::size_t n : {std::size_t{670}, std::size_t{1003}})
        for (const std::size_t d : {1, 2, 7, 67})
            expect_matches_reference(h, gaussian_complex(gen, n), d);
}

TEST(FirDecimate, FilterLongerThanRecordMatchesReference) {
    rng gen(23);
    const auto h = design_lowpass_fir(301, 0.1);
    for (const std::size_t n : {std::size_t{1}, std::size_t{40},
                                std::size_t{149}, std::size_t{299}})
        for (const std::size_t d : {1, 2, 7, 67}) {
            expect_matches_reference(h, as_complex(gaussian_real(gen, n)), d);
            expect_matches_reference(h, gaussian_complex(gen, n), d);
        }
}

TEST(FirDecimate, Preconditions) {
    const std::vector<double> even_h{1.0, 2.0};
    const std::vector<double> h{0.25, 0.5, 0.25};
    const cvec x{1.0, 2.0, 3.0};
    const cvec xc{{1.0, 0.0}};
    EXPECT_THROW(filter_decimate(even_h, x, 1), contract_violation);
    EXPECT_THROW(filter_decimate(even_h, xc, 2), contract_violation);
    EXPECT_THROW(filter_decimate(h, x, 0), contract_violation);
    EXPECT_THROW(filter_decimate(h, cvec{}, 1), contract_violation);
}

TEST(Upfirdn, UpsamplingInterpolatesImpulse) {
    // upfirdn(h, delta, L, 1) returns h itself.
    const auto h = design_lowpass_fir(31, 0.2);
    const cvec delta{1.0};
    const auto y = upfirdn(h, delta, 4, 1);
    ASSERT_GE(y.size(), h.size());
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(std::abs(y[i] - h[i]), 0.0, 1e-12);
}

TEST(Upfirdn, DownsamplingKeepsEveryMth) {
    std::vector<double> h{1.0}; // pass-through
    cvec x(12);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<double>(i);
    const auto y = upfirdn(h, x, 1, 3);
    ASSERT_EQ(y.size(), 4u);
    EXPECT_EQ(y[0], std::complex<double>(0.0));
    EXPECT_EQ(y[1], std::complex<double>(3.0));
    EXPECT_EQ(y[2], std::complex<double>(6.0));
    EXPECT_EQ(y[3], std::complex<double>(9.0));
}

TEST(Upfirdn, MatchesUpsampleThenConvolveThenDownsample) {
    rng gen(11);
    const auto x = gaussian_real(gen, 37);
    const auto h = design_lowpass_fir(21, 0.15);
    const std::size_t up = 3, down = 2;

    // Reference: explicit zero stuffing + full convolution + decimation.
    std::vector<double> stuffed(x.size() * up, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i)
        stuffed[i * up] = x[i];
    const auto full = convolve(h, stuffed);
    std::vector<double> ref;
    for (std::size_t i = 0; i < full.size(); i += down)
        ref.push_back(full[i]);

    const auto y = upfirdn(h, as_complex(x), up, down);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_NEAR(y[i].real(), ref[i], 1e-12) << "i=" << i;
        EXPECT_EQ(y[i].imag(), 0.0) << "i=" << i;
    }
}

TEST(Upfirdn, ComplexInputWorks) {
    const cvec x{{1.0, -1.0}, {2.0, 0.5}};
    const std::vector<double> h{0.5, 0.5};
    const auto y = upfirdn(h, x, 1, 1);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_NEAR(y[1].real(), 1.5, 1e-12);
    EXPECT_NEAR(y[1].imag(), -0.25, 1e-12);
}

TEST(FirDesign, Preconditions) {
    EXPECT_THROW(design_lowpass_fir(2, 0.1), contract_violation);
    EXPECT_THROW(design_lowpass_fir(21, 0.0), contract_violation);
    EXPECT_THROW(design_lowpass_fir(21, 0.5), contract_violation);
    std::vector<double> even_h{1.0, 2.0};
    cvec x{1.0};
    EXPECT_THROW(filter_decimate(even_h, x, 1), contract_violation);
}

} // namespace
