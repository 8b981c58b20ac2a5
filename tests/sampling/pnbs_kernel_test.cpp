// Unit tests for the Kohlenberg PNBS interpolation kernel (paper eqs. (1)-(3)).
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;
using sampling::band_around;
using sampling::band_spec;
using sampling::kohlenberg_kernel;

// The paper's evaluation band: fc = 1 GHz, B = 90 MHz.
band_spec paper_band() { return band_around(1.0 * GHz, 90.0 * MHz); }

TEST(KohlenbergKernel, PaperBandIndices) {
    const kohlenberg_kernel kern(paper_band(), 180.0 * ps);
    // k = ceil(2·955/90) = ceil(21.22) = 22.
    EXPECT_EQ(kern.k(), 22);
}

TEST(KohlenbergKernel, ValueAtZeroIsOne) {
    // s(0) = s0(0) + s1(0) = 1 for any stable delay: interpolation identity.
    const kohlenberg_kernel kern(paper_band(), 180.0 * ps);
    EXPECT_NEAR(kern.s(0.0), 1.0, 1e-12);
}

TEST(KohlenbergKernel, ZerosAtEvenSampleInstants) {
    // s(nT) = 0 for n != 0: the even stream interpolates itself.
    const band_spec band = paper_band();
    const double t_period = 1.0 / band.bandwidth();
    const kohlenberg_kernel kern(band, 180.0 * ps);
    for (int n = 1; n <= 20; ++n) {
        EXPECT_NEAR(kern.s(n * t_period), 0.0, 1e-9) << "n=" << n;
        EXPECT_NEAR(kern.s(-n * t_period), 0.0, 1e-9) << "n=-" << n;
    }
}

TEST(KohlenbergKernel, ZerosAtOddSampleInstants) {
    // s(nT + D) = 0 for all n (second stream nulls): with t = -(nT + D),
    // the odd-stream kernel term s(nT + D - t) must vanish at other odd
    // sample positions.  Equivalently s(mT - D) = 0 for integer m != 0?
    // The defining property from Kohlenberg's interpolation: evaluating the
    // reconstruction at an odd sample instant returns exactly that sample,
    // which requires s(D + nT) = 0 for n = ..., -1, 0(excluded via pair),...
    const band_spec band = paper_band();
    const double t_period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const kohlenberg_kernel kern(band, d);
    // Reconstruction at t = mT + D picks up s(mT + D - nT) from the even
    // stream; consistency requires s(kT + D) = 0 for all integer k.
    for (int n = -20; n <= 20; ++n) {
        EXPECT_NEAR(kern.s(n * t_period + d), 0.0, 1e-9) << "n=" << n;
    }
}

TEST(KohlenbergKernel, MatchesQuotientFormAwayFromZero) {
    // The stable product form must equal the paper's literal eq. (2).
    const band_spec band = paper_band();
    const double b = band.bandwidth();
    const double fl = band.f_lo;
    const double d = 180.0 * ps;
    const kohlenberg_kernel kern(band, d);
    const double k = 22.0, kp = 23.0;

    auto s0_quotient = [&](double t) {
        return (std::cos(two_pi * (k * b - fl) * t - k * pi * b * d) -
                std::cos(two_pi * fl * t - k * pi * b * d)) /
               (two_pi * b * t * std::sin(k * pi * b * d));
    };
    auto s1_quotient = [&](double t) {
        return (std::cos(two_pi * (fl + b) * t - kp * pi * b * d) -
                std::cos(two_pi * (k * b - fl) * t - kp * pi * b * d)) /
               (two_pi * b * t * std::sin(kp * pi * b * d));
    };

    for (double t : {1.3 * ns, -0.7 * ns, 5.11 * ns, 37.0 * ns, -100.0 * ns}) {
        EXPECT_NEAR(kern.s0(t), s0_quotient(t), 1e-9 + 1e-9 * std::abs(kern.s0(t)))
            << "t=" << t;
        EXPECT_NEAR(kern.s1(t), s1_quotient(t), 1e-9 + 1e-9 * std::abs(kern.s1(t)))
            << "t=" << t;
    }
}

TEST(KohlenbergKernel, ForbiddenDelaysMatchPaperValues) {
    // For the paper band: T/k+ = 1/(23·90 MHz) = 483 ps and
    // T/k = 1/(22·90 MHz) = 505 ps are the first two forbidden values.
    const auto forbidden =
        kohlenberg_kernel::forbidden_delays(paper_band(), 1100.0 * ps);
    ASSERT_GE(forbidden.size(), 2u);
    EXPECT_NEAR(forbidden[0], 483.1 * ps, 0.5 * ps);
    EXPECT_NEAR(forbidden[1], 505.1 * ps, 0.5 * ps);
}

TEST(KohlenbergKernel, StabilityPredicateRejectsForbiddenDelays) {
    const band_spec band = paper_band();
    EXPECT_TRUE(kohlenberg_kernel::delay_is_stable(band, 180.0 * ps));
    EXPECT_TRUE(kohlenberg_kernel::delay_is_stable(band, 250.0 * ps));
    const double t_period = 1.0 / band.bandwidth();
    EXPECT_FALSE(kohlenberg_kernel::delay_is_stable(band, t_period / 23.0));
    EXPECT_FALSE(kohlenberg_kernel::delay_is_stable(band, t_period / 22.0));
    EXPECT_FALSE(
        kohlenberg_kernel::delay_is_stable(band, 3.0 * t_period / 23.0));
    EXPECT_FALSE(kohlenberg_kernel::delay_is_stable(band, -1.0 * ps));
}

TEST(KohlenbergKernel, ConstructionThrowsForForbiddenDelay) {
    const band_spec band = paper_band();
    const double t_period = 1.0 / band.bandwidth();
    EXPECT_THROW(kohlenberg_kernel(band, t_period / 23.0),
                 contract_violation);
}

TEST(KohlenbergKernel, OptimalDelayIsQuarterCarrierPeriod) {
    // Paper §II-B1: optimal |D| = 1/(4·fc) = 250 ps at 1 GHz.
    EXPECT_NEAR(kohlenberg_kernel::optimal_delay(paper_band()), 250.0 * ps,
                1e-15);
}

TEST(KohlenbergKernel, ErrorBoundReproducesPaperExample) {
    // Paper eq. (5): fc = 1 GHz, B = 80 MHz, ΔF = 1 % ->
    // ΔD <= (1/25)·0.01/(π·80e6) = 1.59 ps, which the paper rounds to
    // "≈ 2 ps".
    const band_spec band = band_around(1.0 * GHz, 80.0 * MHz);
    const double dd = kohlenberg_kernel::required_delay_accuracy(band, 0.01);
    EXPECT_NEAR(dd, 0.01 / (25.0 * pi * 80.0 * MHz), 1e-18);
    EXPECT_NEAR(dd, 1.6 * ps, 0.1 * ps);
    EXPECT_LT(dd, 2.0 * ps); // the paper's headline number is an upper bound
    // Round trip.
    EXPECT_NEAR(kohlenberg_kernel::error_bound(band, dd), 0.01, 1e-12);
}

TEST(KohlenbergKernel, S0VanishesForIntegerBandPositioning) {
    // When 2·fl/B is an integer, s0 == 0 and condition (3a) drops (paper).
    const band_spec band{900.0 * MHz, 990.0 * MHz}; // 2·900/90 = 20 exactly
    const double t_period = 1.0 / band.bandwidth();
    // T/k would be forbidden otherwise; with s0 == 0 it must be allowed.
    const double d = t_period / 20.0;
    EXPECT_TRUE(kohlenberg_kernel::delay_is_stable(band, d));
    const kohlenberg_kernel kern(band, 180.0 * ps);
    for (double t : {0.0, 1.0 * ns, -3.0 * ns})
        EXPECT_DOUBLE_EQ(kern.s0(t), 0.0) << "t=" << t;
}

TEST(KohlenbergKernel, KernelDecaysAwayFromOrigin) {
    const kohlenberg_kernel kern(paper_band(), 250.0 * ps);
    const double near = std::abs(kern.s(0.3 * ns));
    const double far = std::abs(kern.s(300.0 * ns));
    EXPECT_LT(far, near);
    EXPECT_LT(far, 0.05);
}

} // namespace
