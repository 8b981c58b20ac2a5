// Power-amplifier behavioural model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::rf;

TEST(LinearPa, GainOnly) {
    const linear_pa pa(20.0);
    const std::complex<double> in{0.1, -0.2};
    EXPECT_LT(std::abs(pa.amplify(in) - 10.0 * in), 1e-12);
    EXPECT_NEAR(pa.small_signal_gain(), 10.0, 1e-12);
}

TEST(RappPa, SmallSignalIsLinear) {
    const rapp_pa pa(20.0, 10.0, 2.0);
    const std::complex<double> tiny{1e-4, 2e-4};
    EXPECT_LT(std::abs(pa.amplify(tiny) - 10.0 * tiny), 1e-6 * std::abs(tiny));
}

TEST(RappPa, SaturatesAtConfiguredLevel) {
    const rapp_pa pa(20.0, 10.0, 2.0);
    for (double r : {5.0, 20.0, 100.0})
        EXPECT_LE(std::abs(pa.amplify({r, 0.0})), 10.0 + 1e-9);
    EXPECT_NEAR(std::abs(pa.amplify({1000.0, 0.0})), 10.0, 0.01);
}

TEST(RappPa, AmAmMonotone) {
    const rapp_pa pa(20.0, 10.0, 2.0);
    double prev = 0.0;
    for (double r = 0.01; r < 10.0; r += 0.01) {
        const double out = std::abs(pa.amplify({r, 0.0}));
        EXPECT_GE(out, prev);
        prev = out;
    }
}

TEST(RappPa, PhasePreserved) {
    // Rapp is AM/AM only: output phase equals input phase.
    const rapp_pa pa(20.0, 10.0, 2.0);
    for (double phi : {0.3, 1.2, -2.0}) {
        const auto out = pa.amplify(std::polar(2.0, phi));
        EXPECT_NEAR(std::arg(out), phi, 1e-12);
    }
}

TEST(RappPa, CompressionPointDefinition) {
    const rapp_pa pa(20.0, 10.0, 2.0);
    const double r1 = pa.input_compression_point(1.0);
    // At the 1 dB point the gain is 1 dB below small-signal.
    const double gain_at =
        std::abs(pa.amplify({r1, 0.0})) / r1;
    EXPECT_NEAR(db_from_amplitude(gain_at / 10.0), -1.0, 0.01);
    // 3 dB point is further out.
    EXPECT_GT(pa.input_compression_point(3.0), r1);
}

TEST(RappPa, SmoothnessControlsKnee) {
    // Higher p = sharper knee = less compression below saturation.
    const rapp_pa soft(20.0, 10.0, 1.0);
    const rapp_pa hard(20.0, 10.0, 8.0);
    const double r = 0.5; // half-way to saturation drive
    EXPECT_LT(std::abs(soft.amplify({r, 0.0})),
              std::abs(hard.amplify({r, 0.0})));
}

TEST(SalehPa, PeakAndRolloff) {
    // Classic Saleh parameters: output peaks at r = 1/sqrt(beta_a).
    const saleh_pa pa(2.1587, 1.1517, 4.0033, 9.1040);
    const double r_peak = 1.0 / std::sqrt(1.1517);
    const double peak = std::abs(pa.amplify({r_peak, 0.0}));
    EXPECT_GT(peak, std::abs(pa.amplify({r_peak / 2.0, 0.0})));
    EXPECT_GT(peak, std::abs(pa.amplify({r_peak * 2.0, 0.0})));
}

TEST(SalehPa, AmPmRotatesPhase) {
    const saleh_pa pa(2.1587, 1.1517, 4.0033, 9.1040);
    const auto out_small = pa.amplify(std::polar(0.05, 0.0));
    const auto out_large = pa.amplify(std::polar(0.8, 0.0));
    EXPECT_LT(std::abs(std::arg(out_small)), 0.02);
    EXPECT_GT(std::arg(out_large), 0.1); // strong AM/PM at high drive
}

TEST(Pa, Preconditions) {
    EXPECT_THROW(rapp_pa(20.0, -1.0, 2.0), contract_violation);
    EXPECT_THROW(rapp_pa(20.0, 1.0, 0.1), contract_violation);
    EXPECT_THROW(saleh_pa(-1.0, 1.0, 1.0, 1.0), contract_violation);
    const rapp_pa pa(20.0, 10.0, 2.0);
    EXPECT_THROW(static_cast<void>(pa.input_compression_point(0.0)),
                 contract_violation);
}

} // namespace
