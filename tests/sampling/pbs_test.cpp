// Tests of the first-order (uniform) bandpass sampling planner — the
// theory behind paper Fig. 3 (Vaughan windows).
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "sampling/pbs.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::sampling;

// First principles the window algebra is checked against.

/// Index of the Nyquist zone [m·fs/2, (m+1)·fs/2) containing f (m = 0 is
/// baseband).
int nyquist_zone(double f, double fs) {
    return static_cast<int>(std::floor(2.0 * f / fs));
}

/// Frequency to which a tone at f folds after sampling at fs, in [0, fs/2].
double folded_frequency(double f, double fs) {
    double r = std::fmod(std::abs(f), fs);
    if (r > fs / 2.0)
        r = fs - r;
    return r;
}

TEST(BandSpec, BasicAccessors) {
    const band_spec b{955.0 * MHz, 1045.0 * MHz};
    EXPECT_DOUBLE_EQ(b.bandwidth(), 90.0 * MHz);
    EXPECT_DOUBLE_EQ(b.centre(), 1.0 * GHz);
    EXPECT_TRUE(b.contains(1.0 * GHz));
    EXPECT_FALSE(b.contains(900.0 * MHz));
    EXPECT_THROW((band_spec{-1.0, 5.0}.validate()), contract_violation);
    EXPECT_THROW((band_spec{5.0, 5.0}.validate()), contract_violation);
}

TEST(PbsWindows, PaperFig3bCase) {
    // Paper Fig. 3b: fl = 2 GHz, B = 30 MHz (fH = 2.03 GHz), fs in
    // [60, 100] MHz.  Around fs ≈ 90 MHz the window is n = 45:
    // [2·2030/45, 2·2000/44] = [90.22, 90.91] MHz.
    const band_spec band{2.0 * GHz, 2.03 * GHz};
    const auto windows = alias_free_windows(band, 60.0 * MHz, 100.0 * MHz);
    ASSERT_FALSE(windows.empty());

    bool found_n45 = false;
    for (const auto& w : windows) {
        if (w.n == 45) {
            found_n45 = true;
            EXPECT_NEAR(w.rates.lo, 2.0 * 2030.0 / 45.0 * MHz, 1.0 * kHz);
            EXPECT_NEAR(w.rates.hi, 2.0 * 2000.0 / 44.0 * MHz, 1.0 * kHz);
            // "a few hundreds of KHz" of margin (paper §II-A).
            EXPECT_LT(w.rates.width(), 1.0 * MHz);
            EXPECT_GT(w.rates.width(), 0.2 * MHz);
        }
    }
    EXPECT_TRUE(found_n45);

    // Windows are disjoint and ascending.
    for (std::size_t i = 1; i < windows.size(); ++i)
        EXPECT_GE(windows[i].rates.lo, windows[i - 1].rates.hi);
}

TEST(PbsWindows, WindowsShrinkNearMinimumRate) {
    // Near fs = 2B the acceptable windows become KHz-narrow (paper: "the
    // subsampling clock should have a precision of few KHz").
    const band_spec band{2.0 * GHz, 2.03 * GHz};
    const auto windows = alias_free_windows(band, 60.0 * MHz, 62.0 * MHz);
    ASSERT_FALSE(windows.empty());
    for (const auto& w : windows)
        EXPECT_LT(w.rates.width(), 50.0 * kHz);
}

TEST(PbsWindows, EveryRateInsideAWindowIsAliasFree) {
    const band_spec band{2.0 * GHz, 2.03 * GHz};
    const auto windows = alias_free_windows(band, 60.0 * MHz, 100.0 * MHz);
    for (const auto& w : windows) {
        const double mid = 0.5 * (w.rates.lo + w.rates.hi);
        EXPECT_TRUE(is_alias_free(band, mid)) << "n=" << w.n;
        // Just outside the window: aliasing.
        if (w.rates.lo > 60.0 * MHz + 1.0) {
            EXPECT_FALSE(is_alias_free(band, w.rates.lo - 10.0 * kHz));
        }
        if (w.rates.hi < 100.0 * MHz - 1.0) {
            EXPECT_FALSE(is_alias_free(band, w.rates.hi + 10.0 * kHz));
        }
    }
}

TEST(PbsWindows, AliasFreenessAgreesWithSpectrumFolding) {
    // Cross-check the window algebra against first principles: a rate is
    // alias-free iff the folded band edges land in one Nyquist zone without
    // wrapping across a zone boundary.
    const band_spec band{200.0 * MHz, 230.0 * MHz};
    for (double fs = 61.0 * MHz; fs < 200.0 * MHz; fs += 0.37 * MHz) {
        const int zone_lo = nyquist_zone(band.f_lo, fs);
        const int zone_hi =
            nyquist_zone(band.f_hi - 1e-3, fs); // open upper edge
        const bool no_overlap = zone_lo == zone_hi;
        EXPECT_EQ(is_alias_free(band, fs), no_overlap) << "fs=" << fs;
    }
}

TEST(PbsWindows, MinimumRateAtLeastTwiceBandwidth) {
    // fs_min >= 2B with equality iff fH/B is an integer.
    const band_spec integer_band{180.0 * MHz, 210.0 * MHz}; // fH/B = 7
    EXPECT_NEAR(min_alias_free_rate(integer_band), 60.0 * MHz, 1.0);

    const band_spec general_band{2.0 * GHz, 2.03 * GHz}; // fH/B = 67.67
    EXPECT_GT(min_alias_free_rate(general_band), 60.0 * MHz);
    EXPECT_TRUE(is_alias_free(general_band,
                              min_alias_free_rate(general_band) + 1.0));
}

TEST(PbsWindows, NyquistRateAlwaysWorks) {
    for (double fh : {100.0 * MHz, 1.0 * GHz, 2.43 * GHz}) {
        const band_spec band{fh - 30.0 * MHz, fh};
        EXPECT_TRUE(is_alias_free(band, 2.0 * fh + 1.0));
    }
}

TEST(NyquistZones, FoldedFrequencyBasics) {
    EXPECT_NEAR(folded_frequency(30.0, 100.0), 30.0, 1e-9);
    EXPECT_NEAR(folded_frequency(70.0, 100.0), 30.0, 1e-9);  // image
    EXPECT_NEAR(folded_frequency(130.0, 100.0), 30.0, 1e-9); // 2nd zone
    EXPECT_NEAR(folded_frequency(950.0, 100.0), 50.0, 1e-9);
    EXPECT_EQ(nyquist_zone(49.0, 100.0), 0);
    EXPECT_EQ(nyquist_zone(51.0, 100.0), 1);
    EXPECT_EQ(nyquist_zone(101.0, 100.0), 2);
}

// Parameterised sweep over band positions: windows must tile the alias-free
// set exactly (no rate outside every window is alias-free).
class PbsWindowCoverage : public ::testing::TestWithParam<double> {};

TEST_P(PbsWindowCoverage, WindowsAreExact) {
    const double fh_over_b = GetParam();
    const double b = 30.0 * MHz;
    const band_spec band{fh_over_b * b - b, fh_over_b * b};
    const auto windows = alias_free_windows(band, 2.0 * b * 0.9, 8.0 * b);
    auto in_any_window = [&](double fs) {
        for (const auto& w : windows)
            if (w.rates.contains(fs))
                return true;
        return false;
    };
    for (double fs = 2.0 * b * 0.9; fs < 8.0 * b; fs += 0.011 * b) {
        EXPECT_EQ(is_alias_free(band, fs), in_any_window(fs))
            << "fs/B=" << fs / b;
    }
}

INSTANTIATE_TEST_SUITE_P(BandPositions, PbsWindowCoverage,
                         ::testing::Values(1.5, 2.0, 2.7, 3.3, 4.9, 6.1, 7.0),
                         [](const auto& info) {
                             return "fHoverB_" +
                                    std::to_string(static_cast<int>(
                                        info.param * 10.0));
                         });

} // namespace
