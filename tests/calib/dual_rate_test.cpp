// Tests of the dual-rate cost function (paper eqs. (7)-(9)): conditions,
// search interval m, the unique minimum at D̂ = D, and the factored
// dual_rate_cost against the direct per-evaluation reconstruction
// (support/skew_cost_yardstick.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "adc/tiadc.hpp"
#include "bist/pipeline.hpp"
#include "calib/dual_rate.hpp"
#include "calib/lms.hpp"
#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"
#include "support/skew_cost_yardstick.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;
using calib::dual_rate_capture;
using sampling::band_around;
using sdrbist::testing::skew_cost_reference;

// Build the paper's capture scenario around a multitone test signal.
// A multitone (exact evaluation) keeps interpolation error out of the
// assertions; the BIST integration tests use the full Tx chain instead.
struct scenario {
    dual_rate_capture capture;
    std::vector<double> probes;
    double d_true = 0.0;
};

/// `slow_offset` moves the slow band's centre off the carrier; the tones
/// stay within ±`tone_span` of it.
scenario make_scenario(double d_programmed, double jitter_rms, int bits,
                       std::uint64_t seed = 0xFEED,
                       double tone_span = 18.0 * MHz,
                       double slow_offset = 0.0) {
    const double fc = 1.0 * GHz;
    const double b = 90.0 * MHz;

    // In-band tones limited to the slow band (B1 = 45 MHz wide): the slow
    // capture must also see the whole signal.
    rng gen(seed);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i) {
        rf::tone t;
        t.frequency_hz = gen.uniform(fc - tone_span, fc + tone_span);
        t.amplitude = gen.uniform(0.1, 0.25);
        t.phase_rad = gen.uniform(0.0, two_pi);
        tones.push_back(t);
    }
    const std::size_t n_fast = 720;
    const double duration = static_cast<double>(n_fast) / b + 1.0 * us;
    auto sig = std::make_shared<rf::multitone_signal>(std::move(tones),
                                                      duration);

    adc::tiadc_config tc;
    tc.channel_rate_hz = b;
    tc.quant.bits = bits;
    tc.quant.full_scale = 1.5;
    tc.jitter_rms_s = jitter_rms;
    tc.delay_element.step_s = 1.0 * ps;
    tc.delay_element.code_max = 1000;
    tc.seed = seed ^ 0xA5A5;

    adc::bp_tiadc sampler(tc);
    sampler.program_delay(d_programmed);

    scenario s;
    s.d_true = sampler.actual_delay();
    s.capture.fast = sampler.capture(*sig, 0.5 * us, n_fast, 0);
    s.capture.slow =
        sampler.capture_divided(*sig, 0.5 * us, n_fast / 2, 2, 1);
    s.capture.band_fast = band_around(fc, b);
    s.capture.band_slow = band_around(fc + slow_offset, b / 2.0);

    const auto [lo, hi] = calib::valid_probe_interval(s.capture);
    rng probe_gen(seed ^ 0x77);
    s.probes = calib::make_probe_times(probe_gen, 300, lo, hi);
    return s;
}

TEST(DualRateConditions, PaperSetupSatisfiesEq9) {
    const auto s = make_scenario(180.0 * ps, 0.0, 12);
    EXPECT_TRUE(calib::dual_rate_conditions_ok(s.capture));
}

TEST(DualRateConditions, SearchIntervalMatchesPaper) {
    // Paper: "For these values of B, B1, D, and fc, m = 483 ps".
    const auto s = make_scenario(180.0 * ps, 0.0, 12);
    EXPECT_NEAR(calib::max_search_delay(s.capture), 483.0 * ps, 1.0 * ps);
}

TEST(DualRateCost, MinimumAtTrueDelayNoiselessCase) {
    const auto s = make_scenario(180.0 * ps, 0.0, 16);
    const calib::dual_rate_cost cost(s.capture, s.probes);
    const double cost_at_d = cost(s.d_true);
    // Cost at the truth is far below cost anywhere meaningfully away.
    for (const double off : {-40.0 * ps, -10.0 * ps, 10.0 * ps, 40.0 * ps}) {
        const double c = cost(s.d_true + off);
        EXPECT_GT(c, 4.0 * cost_at_d) << "offset " << off / ps << " ps";
    }
}

TEST(DualRateCost, UnimodalOnSearchInterval) {
    // Sample the cost on a grid over ]0, m[ and verify a single local
    // minimum (up to grid resolution) located at the true delay.
    const auto s = make_scenario(180.0 * ps, 3.0 * ps, 10);
    const double m = calib::max_search_delay(s.capture);
    const calib::dual_rate_cost cost_of(s.capture, s.probes);

    std::vector<double> dgrid, cost;
    for (double d = 0.05 * m; d <= 0.95 * m; d += 0.0125 * m) {
        dgrid.push_back(d);
        cost.push_back(cost_of(d));
    }
    const auto min_it = std::min_element(cost.begin(), cost.end());
    const std::size_t min_idx =
        static_cast<std::size_t>(min_it - cost.begin());
    EXPECT_NEAR(dgrid[min_idx], s.d_true, 0.02 * m);

    // Monotone decrease towards the minimum from both sides (allowing tiny
    // noise-induced wiggle: each step at least must not rise by > 5 %).
    for (std::size_t i = 1; i <= min_idx; ++i)
        EXPECT_LT(cost[i], cost[i - 1] * 1.10) << "left branch i=" << i;
    for (std::size_t i = min_idx + 1; i < cost.size(); ++i)
        EXPECT_GT(cost[i] * 1.10, cost[i - 1]) << "right branch i=" << i;
}

TEST(DualRateCost, JitterRaisesCostFloor) {
    const auto clean = make_scenario(180.0 * ps, 0.0, 10);
    const auto jittery = make_scenario(180.0 * ps, 3.0 * ps, 10);
    const double c_clean =
        calib::dual_rate_cost(clean.capture, clean.probes)(clean.d_true);
    const double c_jitter =
        calib::dual_rate_cost(jittery.capture, jittery.probes)(jittery.d_true);
    EXPECT_GT(c_jitter, c_clean);
}

TEST(DualRateCost, ProbeHelpersRespectRecordGeometry) {
    const auto s = make_scenario(180.0 * ps, 0.0, 10);
    const auto [lo, hi] = calib::valid_probe_interval(s.capture);
    EXPECT_LT(lo, hi);
    for (double t : s.probes) {
        EXPECT_GE(t, lo);
        EXPECT_LE(t, hi);
    }
    // Paper's window: N=300 samples within ~[0.47, 1.7] µs of a record —
    // our geometry must give a usable window of comparable size.
    EXPECT_GT(hi - lo, 1.0 * us);
}

TEST(DualRateCost, ProbeIntervalMatchesReconstructorSpans) {
    // valid_probe_interval reads the spans without building reconstructors;
    // it must give exactly what the reconstructors report.
    const auto s = make_scenario(180.0 * ps, 0.0, 10);
    const sampling::pnbs_options opt{41, 7.0};
    const double d = 180.0 * ps;
    const auto& cap = s.capture;
    const sampling::pnbs_reconstructor fast(
        cap.fast.even, cap.fast.odd, cap.fast.period_s, cap.fast.t_start,
        cap.band_fast, d, opt);
    const sampling::pnbs_reconstructor slow(
        cap.slow.even, cap.slow.odd, cap.slow.period_s, cap.slow.t_start,
        cap.band_slow, d, opt);
    const auto [lo, hi] = calib::valid_probe_interval(cap, opt);
    EXPECT_EQ(lo, std::max(fast.valid_begin(), slow.valid_begin()));
    EXPECT_EQ(hi, std::min(fast.valid_end(), slow.valid_end()));
}

TEST(DualRateCost, RejectsEmptyProbes) {
    const auto s = make_scenario(180.0 * ps, 0.0, 10);
    EXPECT_THROW(calib::dual_rate_cost(s.capture, {}), contract_violation);
    EXPECT_THROW(skew_cost_reference(s.capture, 180.0 * ps, {}),
                 contract_violation);
}

// ---- factored cost against the per-evaluation yardstick --------------------

/// Documented bound of dual_rate_cost against skew_cost_reference, the
/// exact per-tap evaluation (calib/dual_rate.hpp): the tables' read error
/// (sampling/pnbs.hpp) measures ≤ 1.8e-10 of the cost here.
constexpr double cost_rel_bound = 1e-9;

/// Documented bound of the calibration stage's D̂ against a yardstick-driven
/// LMS run.  Algorithm 1 moves only on cost comparisons, and the factored
/// cost's error (≤ cost_rel_bound) flips none of them on these captures:
/// both runs take the same path and D̂ agrees to the last bit.
constexpr double d_hat_bound = 1e-15;

/// A catalogue preset's estimation capture and calibration probes, with the
/// calibration stage's own LMS result for the drift check.
struct preset_case {
    std::string name;
    dual_rate_capture capture;
    std::vector<double> probes;
    double d0 = 0.0;
    double m = 0.0;
    calib::skew_estimate skew;
    calib::lms_options lms;
};

const std::vector<preset_case>& preset_cases() {
    static const std::vector<preset_case> cases = [] {
        std::vector<preset_case> out;
        for (const auto& preset : waveform::standard_catalogue()) {
            bist::bist_config config;
            config.tiadc.quant.full_scale = 2.0;
            config.preset = preset;
            bist::bist_session session(config);
            session.run_until(bist::stage::calibration);
            preset_case c;
            c.name = preset.name;
            c.capture = session.tx_capture().capture;
            c.probes = session.calibration().probe_times;
            c.m = session.tx_capture().max_search_delay_s;
            c.d0 = 0.5 * c.m; // the engine's default start (no d0 hint)
            c.skew = session.calibration().skew;
            c.lms = config.lms;
            out.push_back(std::move(c));
        }
        return out;
    }();
    return cases;
}

bool delay_is_stable(const dual_rate_capture& cap, double d) {
    return sampling::kohlenberg_kernel::delay_is_stable(cap.band_fast, d) &&
           sampling::kohlenberg_kernel::delay_is_stable(cap.band_slow, d);
}

/// Largest relative cost error against the yardstick over a D̂ grid
/// spanning ]0.005·m, 0.995·m[ (unstable hypotheses skipped).
double worst_rel_error(const dual_rate_capture& cap,
                       const std::vector<double>& probes,
                       const sampling::pnbs_options& opt) {
    const double m = calib::max_search_delay(cap);
    const calib::dual_rate_cost cost(cap, probes, opt);
    double worst = 0.0;
    for (int i = 0; i <= 24; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 25.0;
        const double d = (0.005 + 0.99 * u) * m;
        if (!delay_is_stable(cap, d))
            continue;
        const double ref = skew_cost_reference(cap, d, probes, opt);
        worst = std::max(worst, std::abs(cost(d) - ref) / ref);
    }
    return worst;
}

TEST(DualRateCost, MatchesYardstickOnCataloguePresets) {
    for (const auto& c : preset_cases())
        EXPECT_LE(worst_rel_error(c.capture, c.probes, c.lms.recon),
                  cost_rel_bound)
            << c.name;
}

/// The slow band centred on 990 MHz (2·f_lo1/B1 = 43): its kernel has no
/// s0 term, a case no catalogue preset's band plan reaches.
scenario vanishing_s0_scenario() {
    return make_scenario(180.0 * ps, 3.0 * ps, 10, 0xFEED, 8.0 * MHz,
                         -10.0 * MHz);
}

TEST(DualRateCost, MatchesYardstickWhenS0Vanishes) {
    const auto s = vanishing_s0_scenario();
    ASSERT_TRUE(calib::dual_rate_conditions_ok(s.capture));
    ASSERT_TRUE(
        sampling::kohlenberg_kernel(s.capture.band_slow, 180.0 * ps)
            .s0_vanishes());
    EXPECT_LE(worst_rel_error(s.capture, s.probes, {}), cost_rel_bound);
}

TEST(DualRateCost, MatchesYardstickOnSyntheticCapture) {
    for (const double jitter : {0.0, 3.0 * ps}) {
        const auto s = make_scenario(180.0 * ps, jitter, 10);
        EXPECT_LE(worst_rel_error(s.capture, s.probes, {}), cost_rel_bound);
        EXPECT_LE(worst_rel_error(s.capture, s.probes, {41, 7.0}),
                  cost_rel_bound);
    }
}

TEST(DualRateCost, LmsEstimateMatchesYardstickDrivenLms) {
    // Algorithm 1 driven by the yardstick cost must land on the same D̂ as
    // the calibration stage's factored-cost run.
    for (const auto& c : preset_cases()) {
        const calib::lms_skew_estimator estimator(c.lms);
        const auto ref = estimator.minimise(
            [&](double d) {
                return skew_cost_reference(c.capture, d, c.probes,
                                           c.lms.recon);
            },
            c.d0, c.m);
        EXPECT_LE(std::abs(c.skew.d_hat - ref.d_hat), d_hat_bound) << c.name;
        EXPECT_EQ(c.skew.converged, ref.converged) << c.name;
        EXPECT_EQ(c.skew.cost_evaluations, ref.cost_evaluations) << c.name;
    }
    for (const auto& s : {make_scenario(180.0 * ps, 3.0 * ps, 10),
                          vanishing_s0_scenario()}) {
        const calib::lms_skew_estimator estimator;
        const double m = calib::max_search_delay(s.capture);
        const auto got = estimator.estimate(s.capture, 0.5 * m, s.probes);
        const auto ref = estimator.minimise(
            [&](double d) {
                return skew_cost_reference(s.capture, d, s.probes);
            },
            0.5 * m, m);
        EXPECT_LE(std::abs(got.d_hat - ref.d_hat), d_hat_bound);
        EXPECT_EQ(got.cost_evaluations, ref.cost_evaluations);
    }
}

TEST(DualRateCost, RejectsWhatTheYardstickRejects) {
    const auto s = make_scenario(180.0 * ps, 0.0, 10);
    const auto& band = s.capture.band_fast;
    const double d_bad = sampling::kohlenberg_kernel::forbidden_delays(
        band, 1.0 / band.bandwidth())[0];
    const calib::dual_rate_cost cost(s.capture, s.probes);
    // Unstable and non-positive hypotheses.
    for (const double d : {d_bad, 0.0, -10.0 * ps}) {
        EXPECT_THROW(skew_cost_reference(s.capture, d, s.probes),
                     contract_violation);
        EXPECT_THROW((void)cost(d), contract_violation);
    }
    // Record shapes and options the reconstructor rejects.
    auto expect_both_throw = [&](const dual_rate_capture& cap,
                                 const sampling::pnbs_options& opt) {
        EXPECT_THROW(skew_cost_reference(cap, 180.0 * ps, s.probes, opt),
                     contract_violation);
        EXPECT_THROW(calib::dual_rate_cost(cap, s.probes, opt),
                     contract_violation);
    };
    auto uneven = s.capture;
    uneven.slow.odd.pop_back();
    expect_both_throw(uneven, {});
    auto wrong_period = s.capture;
    wrong_period.fast.period_s *= 1.01;
    expect_both_throw(wrong_period, {});
    expect_both_throw(s.capture, {60, 8.0});
    expect_both_throw(s.capture, {3, 8.0});
    auto short_records = s.capture;
    short_records.slow.even.resize(61);
    short_records.slow.odd.resize(61);
    expect_both_throw(short_records, {});
}

TEST(DualRateCost, RejectsProbesWithClampedWindows) {
    // Each probe's whole tap window must lie inside both records.
    const auto s = make_scenario(180.0 * ps, 0.0, 10);
    const double t_first = s.capture.fast.t_start;
    EXPECT_THROW(calib::dual_rate_cost(s.capture, std::vector{t_first}),
                 contract_violation);
}

/// The cost as the mean square of two per-hypothesis reconstructions,
/// whose table reads (pnbs_tap_tables::read) blend rows, not row sums.
double direct_read_cost(const dual_rate_capture& cap,
                        const std::vector<double>& probes, double d) {
    const sampling::pnbs_reconstructor fast(
        cap.fast.even, cap.fast.odd, cap.fast.period_s, cap.fast.t_start,
        cap.band_fast, d);
    const sampling::pnbs_reconstructor slow(
        cap.slow.even, cap.slow.odd, cap.slow.period_s, cap.slow.t_start,
        cap.band_slow, d);
    double acc = 0.0;
    for (const double t : probes) {
        const double diff = fast.value(t) - slow.value(t);
        acc += diff * diff;
    }
    return acc / static_cast<double>(probes.size());
}

TEST(DualRateCost, OddRowSumsAreOrderIndependent) {
    // The row sums are filled on first use; a sweep run ascending on one
    // cost and descending on a fresh one fills them in opposite orders.
    for (const auto& s : {make_scenario(180.0 * ps, 3.0 * ps, 10),
                          vanishing_s0_scenario()}) {
        const double m = calib::max_search_delay(s.capture);
        std::vector<double> d_hat;
        for (int i = 0; i < 40; ++i) {
            const double d = (0.005 + 0.99 * (i + 0.5) / 40.0) * m;
            if (delay_is_stable(s.capture, d))
                d_hat.push_back(d);
        }
        const calib::dual_rate_cost ascending(s.capture, s.probes);
        const calib::dual_rate_cost descending(s.capture, s.probes);
        std::vector<double> up(d_hat.size());
        std::vector<double> down(d_hat.size());
        for (std::size_t i = 0; i < d_hat.size(); ++i)
            up[i] = ascending(d_hat[i]);
        for (std::size_t i = d_hat.size(); i-- > 0;)
            down[i] = descending(d_hat[i]);
        for (std::size_t i = 0; i < d_hat.size(); ++i) {
            EXPECT_EQ(up[i], down[i]) << "d = " << d_hat[i] / ps << " ps";
            const double ref = direct_read_cost(s.capture, s.probes, d_hat[i]);
            EXPECT_NEAR(up[i], ref, 1e-12 * ref)
                << "d = " << d_hat[i] / ps << " ps";
        }
    }
}

/// Restores auto-detection when a test forced backends, on every exit.
struct backend_restore {
    ~backend_restore() { simd::kernel_backend::reset(); }
};

TEST(DualRateCost, BackendsAgreeWithScalar) {
    const backend_restore restore;
    const auto s = make_scenario(180.0 * ps, 3.0 * ps, 10);
    const double m = calib::max_search_delay(s.capture);
    simd::kernel_backend::force("scalar");
    const calib::dual_rate_cost scalar_cost(s.capture, s.probes);
    for (const auto* ops : simd::kernel_backend::available()) {
        simd::kernel_backend::force(ops->name);
        const calib::dual_rate_cost cost(s.capture, s.probes);
        ASSERT_STREQ(cost.backend().name, ops->name);
        for (const double f : {0.1, 0.37, 0.5, 0.83}) {
            const double ref = scalar_cost(f * m);
            EXPECT_NEAR(cost(f * m), ref, 1e-12 * ref) << ops->name;
            // Deterministic within a backend.
            EXPECT_EQ(cost(f * m), cost(f * m)) << ops->name;
        }
    }
}

} // namespace
