// Band-planning tests: eq. (9) conditions, slow-band offsets, the numerical
// identifiability (discrimination) metric and degenerate-carrier handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "calib/dual_rate.hpp"
#include "core/contracts.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using calib::band_plan;
using sampling::band_around;

TEST(Eq9Conditions, PaperSetupHolds) {
    const auto fast = band_around(1.0 * GHz, 90.0 * MHz);
    const auto slow = band_around(1.0 * GHz, 45.0 * MHz);
    EXPECT_TRUE(calib::dual_rate_conditions_ok(fast, slow));
    EXPECT_NEAR(calib::max_search_delay(fast, slow), 483.0 * ps, 1.0 * ps);
}

TEST(Eq9Conditions, DegenerateCarrierViolates) {
    // fc = 900 MHz is an exact multiple of B1 = 45 MHz: k1⁺·B1 = k⁺·B.
    const auto fast = band_around(900.0 * MHz, 90.0 * MHz);
    const auto slow = band_around(900.0 * MHz, 45.0 * MHz);
    EXPECT_FALSE(calib::dual_rate_conditions_ok(fast, slow));
}

TEST(SlowBandOffset, CentredWhenAdmissible) {
    const auto plan =
        calib::choose_band_plan(1.0 * GHz, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz);
    EXPECT_EQ(plan.fast_offset_hz, 0.0);
    EXPECT_NEAR(plan.slow_offset_hz, 0.0, 1.0 * MHz);
}

TEST(SlowBandOffset, ResolvesNonDegenerateCollisions) {
    // 1.2 GHz: centred slow band violates eq. (9); a shifted one exists.
    const auto fast = band_around(1.2 * GHz, 90.0 * MHz);
    const auto centred = band_around(1.2 * GHz, 45.0 * MHz);
    EXPECT_FALSE(calib::dual_rate_conditions_ok(fast, centred));
    const auto plan =
        calib::choose_band_plan(1.2 * GHz, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz);
    EXPECT_EQ(plan.fast_offset_hz, 0.0); // the slow band moves, not the fast
    const double off = plan.slow_offset_hz;
    EXPECT_GT(std::abs(off), 1.0 * MHz);
    EXPECT_TRUE(calib::dual_rate_conditions_ok(
        fast, band_around(1.2 * GHz + off, 45.0 * MHz)));
    // Signal still fits: |off| within B1/2 - occ/2.
    EXPECT_LT(std::abs(off), 22.5 * MHz - 7.5 * MHz);
}

TEST(Discrimination, PaperPlanIsSharp) {
    band_plan plan;
    plan.fast = band_around(1.0 * GHz, 90.0 * MHz);
    plan.slow = band_around(1.0 * GHz, 45.0 * MHz);
    const double disc =
        calib::dual_rate_discrimination(plan, 1.0 * GHz, 15.0 * MHz);
    EXPECT_GT(disc, 1e-2);
}

TEST(Discrimination, SelfImagePlanIsBlind) {
    // The k·B/2 self-image degeneracy at 900 MHz: eq. (9) can be satisfied
    // by shifting, but the discrimination stays poor.
    band_plan plan;
    plan.fast = band_around(902.25 * MHz, 90.0 * MHz);
    plan.slow = band_around(902.25 * MHz, 45.0 * MHz);
    ASSERT_TRUE(calib::dual_rate_conditions_ok(plan.fast, plan.slow));
    const double blind =
        calib::dual_rate_discrimination(plan, 900.0 * MHz, 15.0 * MHz);
    band_plan good;
    good.fast = band_around(1.0 * GHz, 90.0 * MHz);
    good.slow = band_around(1.0 * GHz, 45.0 * MHz);
    const double sharp =
        calib::dual_rate_discrimination(good, 1.0 * GHz, 15.0 * MHz);
    EXPECT_LT(blind, sharp / 10.0);
}

TEST(BandPlan, PrefersCentredBandsAtGoodCarriers) {
    const auto plan =
        calib::choose_band_plan(1.0 * GHz, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz);
    EXPECT_NEAR(plan.fast_offset_hz, 0.0, 1.0);
    EXPECT_NEAR(plan.slow_offset_hz, 0.0, 1.0 * MHz);
    EXPECT_TRUE(calib::dual_rate_conditions_ok(plan.fast, plan.slow));
}

/// The search without deferral: every candidate plan measured in order,
/// the first reaching `threshold` kept, else the first maximum.
std::pair<band_plan, double> measure_every_plan(double fc, double threshold) {
    band_plan best{};
    double best_disc = -1.0;
    for (const auto& plan : calib::candidate_band_plans(
             fc, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz)) {
        const double disc =
            calib::dual_rate_discrimination(plan, fc, 15.0 * MHz);
        if (disc >= threshold)
            return {plan, disc};
        if (disc > best_disc) {
            best_disc = disc;
            best = plan;
        }
    }
    return {best, best_disc};
}

void expect_same_plan(const band_plan& a, const band_plan& b) {
    EXPECT_EQ(a.fast.f_lo, b.fast.f_lo);
    EXPECT_EQ(a.fast.f_hi, b.fast.f_hi);
    EXPECT_EQ(a.slow.f_lo, b.slow.f_lo);
    EXPECT_EQ(a.slow.f_hi, b.slow.f_hi);
    EXPECT_EQ(a.fast_offset_hz, b.fast_offset_hz);
    EXPECT_EQ(a.slow_offset_hz, b.slow_offset_hz);
}

TEST(BandPlan, ReportsTheDiscriminationOfThePlanItReturns) {
    // Both exits: the first plan over the threshold, and (with an
    // unreachable threshold) the most discriminating fallback.  At 900 MHz
    // every plan is blind, so at 1e-2 all are deferred and measured only
    // for the fallback; at threshold 0 nothing is deferred and the first
    // plan passes.  Each choice equals measuring every plan in order.
    for (const double fc : {1.0 * GHz, 900.0 * MHz}) {
        for (const double threshold : {1e-2, 1e300, 0.0}) {
            SCOPED_TRACE(::testing::Message()
                         << fc << " Hz, threshold " << threshold);
            double reported = -1.0;
            const auto plan =
                calib::choose_band_plan(fc, 90.0 * MHz, 45.0 * MHz,
                                        15.0 * MHz, 0.0, threshold, &reported);
            EXPECT_EQ(reported,
                      calib::dual_rate_discrimination(plan, fc, 15.0 * MHz));
            const auto [want, want_disc] = measure_every_plan(fc, threshold);
            expect_same_plan(plan, want);
            EXPECT_EQ(reported, want_disc);
        }
    }
}

TEST(BandPlan, DeferredCandidatesAreBlindOverTheSweep) {
    // Every candidate plan of carriers 150 MHz–3 GHz in 2.5 MHz steps
    // (B 90 MHz, B1 45 MHz, 15 MHz occupied): each one the predictor flags
    // reads at most the blind bound.  Over the same sweep the plans it does
    // not flag read ≥ 3.3e-5 (measuring all 8253 takes ~6 s, so that half
    // is not run here).
    std::size_t candidates = 0;
    std::size_t flagged = 0;
    double worst = 0.0;
    for (int i = 0; i <= 1140; ++i) {
        const double fc = 150.0 * MHz + 2.5 * MHz * static_cast<double>(i);
        for (const auto& plan : calib::candidate_band_plans(
                 fc, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz)) {
            ++candidates;
            if (!calib::plan_is_blind(plan, fc, 15.0 * MHz))
                continue;
            ++flagged;
            const double disc =
                calib::dual_rate_discrimination(plan, fc, 15.0 * MHz);
            EXPECT_LE(disc, calib::blind_discrimination)
                << fc << " Hz, fast offset " << plan.fast_offset_hz;
            worst = std::max(worst, disc);
        }
    }
    EXPECT_EQ(candidates, 8253u);
    EXPECT_EQ(flagged, 1701u);
    RecordProperty("worst_flagged_discrimination", std::to_string(worst));
}

class BandPlanCarriers : public ::testing::TestWithParam<double> {};

TEST_P(BandPlanCarriers, AlwaysProducesAdmissiblePlan) {
    const double fc = GetParam();
    const auto plan =
        calib::choose_band_plan(fc, 90.0 * MHz, 45.0 * MHz, 15.0 * MHz);
    EXPECT_TRUE(calib::dual_rate_conditions_ok(plan.fast, plan.slow));
    // The signal fits both bands.
    EXPECT_LE(std::abs(plan.fast.centre() - fc),
              45.0 * MHz - 7.5 * MHz);
    EXPECT_LE(std::abs(plan.slow.centre() - fc),
              22.5 * MHz - 7.5 * MHz);
}

INSTANTIATE_TEST_SUITE_P(Carriers, BandPlanCarriers,
                         ::testing::Values(400.0 * MHz, 625.0 * MHz,
                                           1.0 * GHz, 1.2 * GHz, 1.8 * GHz,
                                           2.0 * GHz, 2.43 * GHz),
                         [](const auto& info) {
                             return "fc" + std::to_string(static_cast<int>(
                                               info.param / MHz));
                         });

TEST(BandPlan, Preconditions) {
    EXPECT_THROW(calib::choose_band_plan(-1.0, 90e6, 45e6, 15e6),
                 contract_violation);
    EXPECT_THROW(calib::choose_band_plan(1e9, 90e6, 90e6, 15e6),
                 contract_violation);
    EXPECT_THROW(calib::choose_band_plan(1e9, 90e6, 45e6, 0.0),
                 contract_violation);
    // Occupied bandwidth too large for the slow band.
    EXPECT_THROW(calib::choose_band_plan(1e9, 90e6, 45e6, 44.9e6),
                 contract_violation);
}

} // namespace
