// Minimal end-to-end smoke: stimulus -> Tx -> capture runs and is sane.
#include <gtest/gtest.h>

#include "adc/tiadc.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "rf/tx.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;

TEST(IntegrationSmoke, TxThenCaptureProducesLiveSamples) {
    const auto preset = waveform::paper_qpsk_preset();
    const auto bb = waveform::generate_baseband(preset.stimulus);

    rf::tx_config txc;
    txc.carrier_hz = preset.default_carrier_hz;
    const rf::homodyne_tx tx(txc);
    const auto out = tx.transmit(bb);

    adc::tiadc_config tc;
    tc.quant.full_scale = 4.0 * rf::envelope_rms(out.envelope);
    adc::bp_tiadc sampler(tc);
    sampler.program_delay(180.0 * ps);

    const rf::envelope_passband passband(out.envelope, out.envelope_rate,
                                         out.carrier_hz);
    const auto cap = sampler.capture(passband,
                                     passband.begin_time() + 0.1 * us, 512, 0);
    EXPECT_EQ(cap.even.size(), 512u);
    EXPECT_EQ(cap.odd.size(), 512u);
    // Both channels see signal (nonzero RMS, comparable levels).
    const double r_even = rms(cap.even);
    const double r_odd = rms(cap.odd);
    EXPECT_GT(r_even, 1e-3);
    EXPECT_GT(r_odd, 1e-3);
    EXPECT_NEAR(r_even / r_odd, 1.0, 0.3);
    EXPECT_NEAR(cap.true_delay_s, 180.0 * ps, 1.0 * ps);
}

} // namespace
