// Property tests: the truncated PNBS reconstructor recovers in-band
// multitone signals from two uniform sample streams (paper eq. (6)).
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;
using sampling::band_around;
using sampling::band_spec;
using sampling::pnbs_options;
using sampling::pnbs_reconstructor;

// Ideal (jitter-free, unquantised) dual-stream sampling of a signal.
struct sampled {
    std::vector<double> even, odd;
};

sampled sample_streams(const rf::passband_signal& x, double t_start, double t,
                       double d, std::size_t n) {
    sampled s;
    s.even.resize(n);
    s.odd.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        s.even[k] = x.value(t_start + static_cast<double>(k) * t);
        s.odd[k] = x.value(t_start + static_cast<double>(k) * t + d);
    }
    return s;
}

// Random in-band multitone with margin from the band edges.
rf::multitone_signal random_multitone(rng& gen, const band_spec& band,
                                      std::size_t n_tones, double duration,
                                      double edge_margin_frac = 0.08) {
    std::vector<rf::tone> tones(n_tones);
    const double margin = edge_margin_frac * band.bandwidth();
    for (auto& t : tones) {
        t.frequency_hz = gen.uniform(band.f_lo + margin, band.f_hi - margin);
        t.amplitude = gen.uniform(0.2, 1.0);
        t.phase_rad = gen.uniform(0.0, two_pi);
    }
    return rf::multitone_signal(std::move(tones), duration);
}

class PnbsReconstruction : public ::testing::TestWithParam<double> {};

TEST_P(PnbsReconstruction, RecoversMultitoneForVariousDelays) {
    const double d = GetParam(); // delay under test
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    const std::size_t n = 600;
    const double duration = static_cast<double>(n) * t_period + 10.0 * ns;

    rng gen(42);
    const auto sig = random_multitone(gen, band, 5, duration);
    const auto streams = sample_streams(sig, 0.0, t_period, d, n);

    pnbs_options opt;
    opt.taps = 81;
    opt.kaiser_beta = 8.0;
    const pnbs_reconstructor recon(streams.even, streams.odd, t_period, 0.0,
                                   band, d, opt);

    // Probe strictly inside the valid span.
    rng probe_gen(7);
    const double lo = recon.valid_begin();
    const double hi = recon.valid_end();
    std::vector<double> ref, est;
    for (int i = 0; i < 400; ++i) {
        const double t = probe_gen.uniform(lo, hi);
        ref.push_back(sig.value(t));
        est.push_back(recon.value(t));
    }
    const double err = relative_rms_error(ref, est);
    EXPECT_LT(err, 0.02) << "relative rms error with D = " << d / ps << " ps";
}

INSTANTIATE_TEST_SUITE_P(DelaySweep, PnbsReconstruction,
                         ::testing::Values(120.0 * ps, 180.0 * ps, 250.0 * ps,
                                           330.0 * ps, 420.0 * ps),
                         [](const auto& info) {
                             std::string name = "D";
                             name += std::to_string(
                                 static_cast<int>(info.param / ps));
                             return name;
                         });

TEST(PnbsReconstructor, InterpolatesExactSamplePoints) {
    // At even sample instants the reconstruction must return the sample.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const std::size_t n = 400;

    rng gen(3);
    const auto sig = random_multitone(gen, band, 4,
                                      static_cast<double>(n) * t_period + 1.0 * us);
    const auto streams = sample_streams(sig, 0.0, t_period, d, n);
    const pnbs_reconstructor recon(streams.even, streams.odd, t_period, 0.0,
                                   band, d, {61, 8.0});

    for (std::size_t k = 100; k < 120; ++k) {
        const double t = static_cast<double>(k) * t_period;
        EXPECT_NEAR(recon.value(t), streams.even[k],
                    0.02 * std::abs(streams.even[k]) + 0.02)
            << "k=" << k;
    }
}

TEST(PnbsReconstructor, MoreTapsReduceError) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const std::size_t n = 900;

    rng gen(11);
    const auto sig = random_multitone(
        gen, band, 5, static_cast<double>(n) * t_period + 1.0 * us);
    const auto streams = sample_streams(sig, 0.0, t_period, d, n);

    double prev_err = 1e9;
    for (const std::size_t taps : {21u, 41u, 81u, 161u}) {
        const pnbs_reconstructor recon(streams.even, streams.odd, t_period,
                                       0.0, band, d, {taps, 8.0});
        rng probe_gen(5);
        std::vector<double> ref, est;
        for (int i = 0; i < 300; ++i) {
            const double t =
                probe_gen.uniform(recon.valid_begin(), recon.valid_end());
            ref.push_back(sig.value(t));
            est.push_back(recon.value(t));
        }
        const double err = relative_rms_error(ref, est);
        EXPECT_LT(err, prev_err * 1.05) << "taps=" << taps;
        prev_err = err;
    }
    EXPECT_LT(prev_err, 5e-3);
}

TEST(PnbsReconstructor, WrongDelayDegradesReconstruction) {
    // The motivation for skew estimation: a 5 ps delay error visibly
    // degrades the reconstruction (paper eq. (4) predicts ~3.3 %… per ps
    // band: pi·B·(k+1)·5ps ≈ 3.3 % for k=22, B=90 MHz… actually 3.25e-2).
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    const double d_true = 180.0 * ps;
    const std::size_t n = 600;

    rng gen(19);
    const auto sig = random_multitone(
        gen, band, 5, static_cast<double>(n) * t_period + 1.0 * us);
    const auto streams = sample_streams(sig, 0.0, t_period, d_true, n);

    auto rms_err = [&](double d_hat) {
        const pnbs_reconstructor recon(streams.even, streams.odd, t_period,
                                       0.0, band, d_hat, {81, 8.0});
        rng probe_gen(23);
        std::vector<double> ref, est;
        for (int i = 0; i < 300; ++i) {
            const double t =
                probe_gen.uniform(recon.valid_begin(), recon.valid_end());
            ref.push_back(sig.value(t));
            est.push_back(recon.value(t));
        }
        return relative_rms_error(ref, est);
    };

    const double err_true = rms_err(d_true);
    const double err_5ps = rms_err(d_true + 5.0 * ps);
    const double err_20ps = rms_err(d_true + 20.0 * ps);
    EXPECT_LT(err_true, 0.01);
    EXPECT_GT(err_5ps, 2.0 * err_true);
    EXPECT_GT(err_20ps, err_5ps);
}

TEST(PnbsReconstructor, ValidSpanIsInsideRecord) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    std::vector<double> even(200, 0.0), odd(200, 0.0);
    const pnbs_reconstructor recon(even, odd, t_period, 1.0 * us, band,
                                   180.0 * ps, {61, 8.0});
    EXPECT_GT(recon.valid_begin(), 1.0 * us);
    EXPECT_LT(recon.valid_end(), 1.0 * us + 200.0 * t_period);
    EXPECT_LT(recon.valid_begin(), recon.valid_end());
}

TEST(PnbsReconstructor, StaticValidSpanMatchesMembers) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double t_period = 1.0 / band.bandwidth();
    for (const std::size_t taps : {std::size_t{5}, std::size_t{61}}) {
        std::vector<double> even(150, 0.0), odd(150, 0.0);
        const pnbs_reconstructor recon(even, odd, t_period, 0.7 * us, band,
                                       180.0 * ps, {taps, 8.0});
        const auto [begin, end] = pnbs_reconstructor::valid_span(
            even.size(), t_period, 0.7 * us, taps);
        EXPECT_EQ(begin, recon.valid_begin()) << "taps=" << taps;
        EXPECT_EQ(end, recon.valid_end()) << "taps=" << taps;
    }
    EXPECT_THROW(pnbs_reconstructor::valid_span(61, t_period, 0.0, 61),
                 contract_violation);
    EXPECT_THROW(pnbs_reconstructor::valid_span(100, t_period, 0.0, 60),
                 contract_violation);
    EXPECT_THROW(pnbs_reconstructor::valid_span(100, 0.0, 0.0, 61),
                 contract_violation);
}

TEST(PnbsReconstructor, RejectsMismatchedPeriodAndBand) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    std::vector<double> even(100, 0.0), odd(100, 0.0);
    EXPECT_THROW(pnbs_reconstructor(even, odd, /*period=*/1.0 / (80.0 * MHz),
                                    0.0, band, 180.0 * ps, {61, 8.0}),
                 contract_violation);
}

TEST(PnbsReconstructor, RejectsEvenTapCount) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    std::vector<double> even(100, 0.0), odd(100, 0.0);
    EXPECT_THROW(pnbs_reconstructor(even, odd, 1.0 / (90.0 * MHz), 0.0, band,
                                    180.0 * ps, {60, 8.0}),
                 contract_violation);
}

} // namespace
