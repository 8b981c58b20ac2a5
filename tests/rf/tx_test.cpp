// Homodyne transmitter chain tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "rf/tx.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::rf;

waveform::baseband_waveform stimulus() {
    auto cfg = waveform::paper_qpsk_preset().stimulus;
    cfg.symbol_count = 64;
    return waveform::generate_baseband(cfg);
}

TEST(HomodyneTx, ProducesPassbandOutput) {
    tx_config cfg;
    const homodyne_tx tx(cfg);
    const auto out = tx.transmit(stimulus());
    EXPECT_EQ(out.carrier_hz, cfg.carrier_hz);
    EXPECT_GT(out.envelope_rate, 0.0);
    const envelope_passband passband(out.envelope, out.envelope_rate,
                                     out.carrier_hz);
    // The passband waveform oscillates at ~the carrier.
    const double t0 = passband.begin_time() + 1.0 * us;
    int sign_changes = 0;
    double prev = passband.value(t0);
    const double dt = 1.0 / (8.0 * cfg.carrier_hz);
    for (int i = 1; i < 800; ++i) {
        const double v = passband.value(t0 + static_cast<double>(i) * dt);
        if ((v > 0) != (prev > 0))
            ++sign_changes;
        prev = v;
    }
    // 800 samples cover 100 carrier cycles -> ~200 zero crossings.
    EXPECT_NEAR(sign_changes, 200, 30);
}

TEST(HomodyneTx, DeterministicInSeed) {
    tx_config cfg;
    cfg.lo_phase_noise.linewidth_hz = 10.0 * kHz;
    const auto bb = stimulus();
    const auto a = homodyne_tx(cfg).transmit(bb);
    const auto b = homodyne_tx(cfg).transmit(bb);
    ASSERT_EQ(a.envelope.size(), b.envelope.size());
    for (std::size_t i = 0; i < a.envelope.size(); ++i)
        EXPECT_EQ(a.envelope[i], b.envelope[i]);
}

TEST(HomodyneTx, PaGainScalesOutput) {
    const auto bb = stimulus();
    tx_config lo;
    lo.pa_gain_db = 14.0;
    tx_config hi = lo;
    hi.pa_gain_db = 20.0;
    const double rms_lo = envelope_rms(homodyne_tx(lo).transmit(bb).envelope);
    const double rms_hi = envelope_rms(homodyne_tx(hi).transmit(bb).envelope);
    // Same backoff from the respective compression points: output scales
    // with the saturation level (= gain here).
    EXPECT_NEAR(db_from_amplitude(rms_hi / rms_lo), 6.0, 1.0);
}

TEST(HomodyneTx, BackoffControlsCompression) {
    const auto bb = stimulus();
    tx_config relaxed;
    relaxed.pa_backoff_db = 14.0;
    tx_config hot = relaxed;
    hot.pa_backoff_db = 1.0;
    // Peak-to-average ratio collapses when the PA compresses.
    auto papr = [&](const tx_config& cfg) {
        const auto out = homodyne_tx(cfg).transmit(bb);
        double peak = 0.0;
        for (const auto& v : out.envelope)
            peak = std::max(peak, std::abs(v));
        return peak / envelope_rms(out.envelope);
    };
    EXPECT_GT(papr(relaxed), papr(hot) * 1.1);
}

TEST(HomodyneTx, ImpairmentsChangeOutput) {
    const auto bb = stimulus();
    tx_config clean;
    const auto ref = homodyne_tx(clean).transmit(bb);

    tx_config imbalanced = clean;
    imbalanced.imbalance = {1.5, 8.0};
    const auto imb = homodyne_tx(imbalanced).transmit(bb);
    double diff = 0.0;
    for (std::size_t i = 0; i < ref.envelope.size(); ++i)
        diff += std::norm(imb.envelope[i] - ref.envelope[i]);
    EXPECT_GT(diff, 1e-3);

    tx_config leaky = clean;
    leaky.leakage.level_dbc = -15.0;
    const auto leak = homodyne_tx(leaky).transmit(bb);
    std::complex<double> dc{0.0, 0.0};
    for (const auto& v : leak.envelope)
        dc += v;
    dc /= static_cast<double>(leak.envelope.size());
    EXPECT_GT(std::abs(dc), 0.01);
}

TEST(HomodyneTx, SalehSelectable) {
    tx_config cfg;
    cfg.pa = pa_kind::saleh;
    cfg.pa_backoff_db = 10.0;
    const auto out = homodyne_tx(cfg).transmit(stimulus());
    EXPECT_GT(envelope_rms(out.envelope), 0.0);
}

TEST(HomodyneTx, DriveScaleRespectsBackoff) {
    tx_config cfg;
    cfg.pa_backoff_db = 8.0;
    const homodyne_tx tx(cfg);
    cvec env(256, {0.5, 0.5}); // rms = sqrt(0.5)
    const double scale = tx.drive_scale(env);
    const auto& pa = dynamic_cast<const rapp_pa&>(tx.amplifier());
    const double target =
        pa.input_compression_point(1.0) * amplitude_from_db(-8.0);
    EXPECT_NEAR(scale * envelope_rms(env), target, 1e-9);
}

TEST(HomodyneTx, RejectsEmptyStimulus) {
    tx_config cfg;
    const homodyne_tx tx(cfg);
    waveform::baseband_waveform empty;
    empty.sample_rate = 1e6;
    EXPECT_THROW((void)tx.transmit(empty), contract_violation);
}

} // namespace
