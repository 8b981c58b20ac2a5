// Spectral mask definition and compliance checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "waveform/mask.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::waveform;

/// The mask limit at an offset (dBc): the tightest segment covering |f|,
/// +inf inside no segment.
double limit_at(const spectral_mask& mask, double offset_hz) {
    const double off = std::abs(offset_hz);
    double limit = std::numeric_limits<double>::infinity();
    for (const auto& s : mask.segments())
        if (off >= s.offset_lo_hz && off < s.offset_hi_hz)
            limit = std::min(limit, s.limit_dbc);
    return limit;
}

// Synthetic baseband PSD: flat in-band plateau + configurable shoulders.
dsp::psd_result synthetic_psd(double shoulder_dbc, double floor_dbc) {
    dsp::psd_result p;
    const double df = 0.25 * MHz;
    for (double f = -40.0 * MHz; f <= 40.0 * MHz; f += df) {
        p.frequency.push_back(f);
        const double af = std::abs(f);
        // Region boundaries aligned with the narrowband mask segments for a
        // 10 MHz / alpha = 0.5 waveform: shoulders 11.25-22.5 MHz, floor
        // beyond 22.5 MHz.
        double level_dbc;
        if (af < 7.5 * MHz)
            level_dbc = 0.0;
        else if (af < 22.5 * MHz)
            level_dbc = shoulder_dbc;
        else
            level_dbc = floor_dbc;
        p.density.push_back(power_from_db(level_dbc));
    }
    p.resolution_bw = df;
    return p;
}

TEST(SpectralMask, PassingSpectrum) {
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    const auto report = mask.check(synthetic_psd(-45.0, -55.0));
    EXPECT_TRUE(report.pass);
    EXPECT_GT(report.worst_margin_db, 5.0);
    ASSERT_EQ(report.segments.size(), 2u);
    for (const auto& seg : report.segments)
        EXPECT_TRUE(seg.pass);
}

TEST(SpectralMask, HotShoulderFails) {
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    const auto report = mask.check(synthetic_psd(-25.0, -55.0));
    EXPECT_FALSE(report.pass);
    EXPECT_FALSE(report.segments[0].pass);
    EXPECT_NEAR(report.segments[0].measured_dbc, -25.0, 0.5);
    EXPECT_NEAR(report.worst_margin_db, -10.0, 0.6);
}

TEST(SpectralMask, HotFloorFailsOnlyFarSegment) {
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    const auto report = mask.check(synthetic_psd(-45.0, -30.0));
    EXPECT_FALSE(report.pass);
    EXPECT_TRUE(report.segments[0].pass);
    EXPECT_FALSE(report.segments[1].pass);
}

TEST(SpectralMask, LimitAtLookup) {
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    // occ = 15 MHz: shoulders 11.25..22.5, floor 22.5..60.
    EXPECT_TRUE(std::isinf(limit_at(mask, 5.0 * MHz)));
    EXPECT_DOUBLE_EQ(limit_at(mask, 15.0 * MHz), -35.0);
    EXPECT_DOUBLE_EQ(limit_at(mask, -15.0 * MHz), -35.0); // symmetric
    EXPECT_DOUBLE_EQ(limit_at(mask, 30.0 * MHz), -42.0);
    EXPECT_TRUE(std::isinf(limit_at(mask, 100.0 * MHz)));
}

TEST(SpectralMask, StrictMaskIsStricter) {
    const auto normal = make_narrowband_mask(10.0 * MHz, 0.5);
    const auto strict = make_strict_mask(10.0 * MHz, 0.5);
    EXPECT_LT(limit_at(strict, 15.0 * MHz), limit_at(normal, 15.0 * MHz));
    EXPECT_LT(limit_at(strict, 30.0 * MHz), limit_at(normal, 30.0 * MHz));
}

TEST(MeasurementFloor, FormulaAndMonotonicity) {
    // Paper setup: 3 ps at 1 GHz, 15 MHz occupied in a 90 MHz capture.
    const double floor =
        bist_measurement_floor_dbc(1.0 * GHz, 3.0 * ps, 15.0 * MHz,
                                   90.0 * MHz);
    EXPECT_NEAR(floor, -42.3, 1.0); // -20log10(2π·1e9·3e-12) - 10log10(6)
    // Higher carrier -> higher floor; more jitter -> higher floor.
    EXPECT_GT(bist_measurement_floor_dbc(2.0 * GHz, 3.0 * ps, 15.0 * MHz,
                                         90.0 * MHz),
              floor);
    EXPECT_GT(bist_measurement_floor_dbc(1.0 * GHz, 6.0 * ps, 15.0 * MHz,
                                         90.0 * MHz),
              floor);
    // Zero jitter: unbounded measurement.
    EXPECT_LT(bist_measurement_floor_dbc(1.0 * GHz, 0.0, 15.0 * MHz,
                                         90.0 * MHz),
              -150.0);
}

TEST(MeasurementFloor, RelaxationRaisesOnlyViolatedLimits) {
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    const auto relaxed = relax_to_measurement_floor(mask, -40.0, 4.0);
    // -42 floor limit below -36 -> raised; -35 shoulder stays.
    EXPECT_DOUBLE_EQ(limit_at(relaxed, 15.0 * MHz), -35.0);
    EXPECT_DOUBLE_EQ(limit_at(relaxed, 30.0 * MHz), -36.0);
    EXPECT_NE(relaxed.name(), mask.name());
}

TEST(SpectralMask, Preconditions) {
    EXPECT_THROW(spectral_mask("x", 0.0, {}), contract_violation);
    EXPECT_THROW(spectral_mask("x", 1e6, {{5.0, 1.0, -30.0}}),
                 contract_violation);
    const auto mask = make_narrowband_mask(10.0 * MHz, 0.5);
    dsp::psd_result empty;
    EXPECT_THROW(mask.check(empty), contract_violation);
    EXPECT_THROW(make_narrowband_mask(0.0, 0.5), contract_violation);
    EXPECT_THROW(make_narrowband_mask(1e6, 1.5), contract_violation);
}

} // namespace
