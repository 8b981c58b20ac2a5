// Quantiser behaviour: LSB, clipping, SNR law, channel errors.
#include <gtest/gtest.h>

#include <cmath>

#include "adc/quantizer.hpp"
#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::adc;

/// One sample through the record path.
double quantize(const quantizer& q, double x) {
    const double in[1] = {x};
    return q.process_scaled(in, 1.0)[0];
}

TEST(Quantizer, LsbSize) {
    const quantizer q({10, 1.0, 0.0, 0.0});
    EXPECT_NEAR(q.lsb(), 2.0 / 1024.0, 1e-15);
}

TEST(Quantizer, RoundsToCellCentres) {
    const quantizer q({3, 1.0, 0.0, 0.0}); // LSB = 0.25
    EXPECT_NEAR(quantize(q, 0.0), 0.125, 1e-12);
    EXPECT_NEAR(quantize(q, 0.26), 0.375, 1e-12);
    EXPECT_NEAR(quantize(q, -0.01), -0.125, 1e-12);
    // Quantisation error bounded by LSB/2 inside the range.
    rng gen(3);
    for (int i = 0; i < 500; ++i) {
        const double x = gen.uniform(-0.99, 0.99);
        EXPECT_LE(std::abs(quantize(q, x) - x), 0.125 + 1e-12);
    }
}

TEST(Quantizer, ClipsOutOfRange) {
    const quantizer q({8, 1.0, 0.0, 0.0});
    EXPECT_LE(quantize(q, 3.0), 1.0);
    EXPECT_GE(quantize(q, -3.0), -1.0);
    EXPECT_NEAR(quantize(q, -5.0), -1.0 + q.lsb() / 2.0, 1e-12);
}

TEST(Quantizer, SnrFollowsSixDbPerBit) {
    // Full-scale sine through an n-bit quantiser: SNR ≈ 6.02 n + 1.76 dB.
    for (int bits : {6, 8, 10, 12}) {
        const quantizer q({bits, 1.0, 0.0, 0.0});
        const std::size_t n = 65536;
        double sig_p = 0.0, err_p = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            // Irrational frequency avoids hitting the same codes repeatedly.
            const double x =
                0.9999 * std::sin(two_pi * 0.123456789 * static_cast<double>(i));
            const double e = quantize(q, x) - x;
            sig_p += x * x;
            err_p += e * e;
        }
        const double snr = db_from_power(sig_p / err_p);
        EXPECT_NEAR(snr, 6.0206 * bits + 1.7609, 0.6) << bits;
    }
}

TEST(Quantizer, GainAndOffsetErrorsApplied) {
    const quantizer ideal({12, 1.0, 0.0, 0.0});
    const quantizer off({12, 1.0, 0.0, 0.1});
    const quantizer gain({12, 1.0, 0.05, 0.0});
    EXPECT_NEAR(quantize(off, 0.2) - quantize(ideal, 0.2), 0.1, 2e-3);
    EXPECT_NEAR(quantize(gain, 0.4) - quantize(ideal, 0.4), 0.02, 2e-3);
}

TEST(Quantizer, MoreBitsNeverWorse) {
    rng gen(5);
    const auto x = gen.uniform_vector(2000, -0.9, 0.9);
    double prev_err = 1e9;
    for (int bits : {4, 8, 12, 16}) {
        const quantizer q({bits, 1.0, 0.0, 0.0});
        double err = 0.0;
        for (double v : x) {
            const double e = quantize(q, v) - v;
            err += e * e;
        }
        EXPECT_LT(err, prev_err);
        prev_err = err;
    }
}

TEST(Quantizer, Preconditions) {
    EXPECT_THROW(quantizer({0, 1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(quantizer({30, 1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(quantizer({10, -1.0, 0.0, 0.0}), contract_violation);
}

} // namespace
