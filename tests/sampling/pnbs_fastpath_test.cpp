// Accuracy regression for the table-driven PNBS path (per-call NCO
// factors, per-term polyphase kernel tables) against the per-tap
// transcendental yardstick (support/pnbs_yardstick.hpp), across a delay ×
// taps grid, plus the uniform()/value() bit-for-bit guarantee and the
// forbidden-delay drift fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"
#include "support/pnbs_yardstick.hpp"

namespace {

using namespace sdrbist;
using sampling::band_around;
using sampling::band_spec;
using sampling::kohlenberg_kernel;
using sampling::pnbs_options;
using sampling::pnbs_reconstructor;
using sdrbist::testing::pnbs_yardstick;

struct streams {
    std::vector<double> even, odd;
    double rms = 0.0;
};

streams sample_streams(const rf::passband_signal& x, double t, double d,
                       std::size_t n) {
    streams s;
    s.even.resize(n);
    s.odd.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        s.even[k] = x.value(static_cast<double>(k) * t);
        s.odd[k] = x.value(static_cast<double>(k) * t + d);
        acc += s.even[k] * s.even[k];
    }
    s.rms = std::sqrt(acc / static_cast<double>(n));
    return s;
}

rf::multitone_signal in_band_multitone(const band_spec& band, double duration,
                                       std::uint64_t seed) {
    rng gen(seed);
    std::vector<rf::tone> tones(5);
    const double margin = 0.08 * band.bandwidth();
    for (auto& t : tones) {
        t.frequency_hz = gen.uniform(band.f_lo + margin, band.f_hi - margin);
        t.amplitude = gen.uniform(0.2, 1.0);
        t.phase_rad = gen.uniform(0.0, two_pi);
    }
    return rf::multitone_signal(std::move(tones), duration);
}

/// Max |fast - yardstick| over random probes, normalised to signal RMS.
double fast_path_deviation(const pnbs_reconstructor& recon,
                           const pnbs_yardstick& ref, double rms_scale,
                           double t_lo, double t_hi, std::uint64_t seed) {
    rng probe(seed);
    double worst = 0.0;
    for (int i = 0; i < 300; ++i) {
        const double t = probe.uniform(t_lo, t_hi);
        worst = std::max(worst, std::abs(recon.value(t) - ref.value(t)));
    }
    return worst / rms_scale;
}

TEST(PnbsFastPath, MatchesReferenceAcrossDelayAndTapsGrid) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 400;
    const double duration = static_cast<double>(n) * period + 10.0 * ns;
    const auto sig = in_band_multitone(band, duration, 0xFEED);

    for (const double d : {120.0 * ps, 180.0 * ps, 250.0 * ps, 420.0 * ps}) {
        const auto s = sample_streams(sig, period, d, n);
        for (const std::size_t taps : {41u, 61u, 81u}) {
            const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band,
                                           d, {taps, 8.0});
            const pnbs_yardstick ref(s.even, s.odd, period, 0.0, band, d,
                                     {taps, 8.0});
            const double dev =
                fast_path_deviation(recon, ref, s.rms, recon.valid_begin(),
                                    recon.valid_end(), 0x7 + taps);
            EXPECT_LT(dev, 1e-9) << "D=" << d / ps << " ps, taps=" << taps;
        }
    }
}

TEST(PnbsFastPath, MatchesReferenceAtRecordEdges) {
    // Clipped tap windows (probes outside the valid span) must follow the
    // yardstick's skip-out-of-range semantics.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 200;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0xE6E);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});
    const pnbs_yardstick ref(s.even, s.odd, period, 0.0, band, d, {61, 8.0});
    const double span = static_cast<double>(n) * period;
    const double dev = fast_path_deviation(recon, ref, s.rms, -0.1 * span,
                                           1.1 * span, 0x21);
    EXPECT_LT(dev, 1e-9);
}

TEST(PnbsFastPath, MatchesReferenceAtSampleInstantsAndMidpoints) {
    // frac = 0 (where a tap's sinc argument crosses zero) and frac = ±0.5
    // (the tap-window boundary).
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 300;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x3AB);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});
    const pnbs_yardstick ref(s.even, s.odd, period, 0.0, band, d, {61, 8.0});
    double worst = 0.0;
    for (std::size_t k = 40; k < 260; ++k) {
        for (const double offs : {0.0, 0.5, -0.5, 1e-13, d / period}) {
            const double t = (static_cast<double>(k) + offs) * period;
            worst = std::max(worst, std::abs(recon.value(t) - ref.value(t)));
        }
    }
    EXPECT_LT(worst / s.rms, 1e-9);
}

TEST(PnbsFastPath, UniformIsBitIdenticalToPerPointValue) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 300;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x1D);
    const double d = 250.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_reconstructor recon(s.even, s.odd, period, 0.0, band, d,
                                   {61, 8.0});

    const double t0 = recon.valid_begin();
    const double rate = 1000.0 / (recon.valid_end() - t0);
    const std::size_t n_eval = 1000;
    const auto grid = recon.uniform(t0, rate, n_eval);
    ASSERT_EQ(grid.size(), n_eval);
    for (std::size_t i = 0; i < n_eval; ++i) {
        const double t = t0 + static_cast<double>(i) / rate;
        EXPECT_EQ(grid[i], recon.value(t)) << i;
    }
}

TEST(PnbsFastPath, ReferencePathStillReconstructs) {
    // Guard the yardstick itself: it must keep reconstructing in-band
    // signals (it is what every fast path is held to).
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const std::size_t n = 400;
    const auto sig = in_band_multitone(
        band, static_cast<double>(n) * period + 10.0 * ns, 0x44);
    const double d = 180.0 * ps;
    const auto s = sample_streams(sig, period, d, n);
    const pnbs_yardstick yardstick(s.even, s.odd, period, 0.0, band, d,
                                   {81, 8.0});
    const auto [t_lo, t_hi] =
        pnbs_reconstructor::valid_span(n, period, 0.0, 81);
    rng probe(0x45);
    std::vector<double> ref, est;
    for (int i = 0; i < 200; ++i) {
        const double t = probe.uniform(t_lo, t_hi);
        ref.push_back(sig.value(t));
        est.push_back(yardstick.value(t));
    }
    EXPECT_LT(relative_rms_error(ref, est), 0.02);
}

TEST(KohlenbergKernel, ForbiddenDelaysAreExactMultiples) {
    // Regression for the `d += step` accumulation drift: every forbidden
    // delay must be bit-exactly n·step.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const auto delays =
        kohlenberg_kernel::forbidden_delays(band, 300.0 * t);
    ASSERT_GT(delays.size(), 1000u);
    const kohlenberg_kernel kernel(band, 180.0 * ps);
    const double step_k = t / static_cast<double>(kernel.k());
    const double step_kp = t / static_cast<double>(kernel.k() + 1);
    for (const double d : delays) {
        const double nk = std::round(d / step_k);
        const double nkp = std::round(d / step_kp);
        const bool is_k_multiple = d == nk * step_k;
        const bool is_kp_multiple = d == nkp * step_kp;
        EXPECT_TRUE(is_k_multiple || is_kp_multiple) << d;
    }
    // The largest k⁺ multiple inside the limit is present and undrifted.
    const double n_top = std::round(300.0 * t / step_kp);
    EXPECT_TRUE(std::binary_search(delays.begin(), delays.end(),
                                   n_top * step_kp));
}

} // namespace
