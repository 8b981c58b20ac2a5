// Tests of the dual-rate cost function (paper eqs. (7)-(9)): conditions,
// search interval m, and — crucially — the unique minimum at D̂ = D.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "adc/tiadc.hpp"
#include "calib/dual_rate.hpp"
#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;
using calib::dual_rate_capture;
using sampling::band_around;

// Build the paper's capture scenario around a multitone test signal.
// A multitone (exact evaluation) keeps interpolation error out of the
// assertions; the BIST integration tests use the full Tx chain instead.
struct scenario {
    dual_rate_capture capture;
    std::vector<double> probes;
    double d_true = 0.0;
};

scenario make_scenario(double d_programmed, double jitter_rms, int bits,
                       std::uint64_t seed = 0xFEED) {
    const double fc = 1.0 * GHz;
    const double b = 90.0 * MHz;

    // In-band tones limited to the slow band (B1 = 45 MHz wide): the slow
    // capture must also see the whole signal.
    rng gen(seed);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i) {
        rf::tone t;
        t.frequency_hz = gen.uniform(fc - 18.0 * MHz, fc + 18.0 * MHz);
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
    s.capture.band_slow = band_around(fc, b / 2.0);

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
    const double cost_at_d = calib::skew_cost(s.capture, s.d_true, s.probes);
    // Cost at the truth is far below cost anywhere meaningfully away.
    for (const double off : {-40.0 * ps, -10.0 * ps, 10.0 * ps, 40.0 * ps}) {
        const double c = calib::skew_cost(s.capture, s.d_true + off, s.probes);
        EXPECT_GT(c, 4.0 * cost_at_d) << "offset " << off / ps << " ps";
    }
}

TEST(DualRateCost, UnimodalOnSearchInterval) {
    // Sample the cost on a grid over ]0, m[ and verify a single local
    // minimum (up to grid resolution) located at the true delay.
    const auto s = make_scenario(180.0 * ps, 3.0 * ps, 10);
    const double m = calib::max_search_delay(s.capture);

    std::vector<double> dgrid, cost;
    for (double d = 0.05 * m; d <= 0.95 * m; d += 0.0125 * m) {
        dgrid.push_back(d);
        cost.push_back(calib::skew_cost(s.capture, d, s.probes));
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
        calib::skew_cost(clean.capture, clean.d_true, clean.probes);
    const double c_jitter =
        calib::skew_cost(jittery.capture, jittery.d_true, jittery.probes);
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
    EXPECT_THROW(calib::skew_cost(s.capture, 180.0 * ps, {}),
                 contract_violation);
}

} // namespace
