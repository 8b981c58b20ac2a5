// BP-TIADC capture engine tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "adc/tiadc.hpp"
#include "core/contracts.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::adc;
using sdrbist::testing::mean;
using sdrbist::testing::max_abs;

rf::multitone_signal tone_at(double f, double duration) {
    return rf::multitone_signal({{f, 0.8, 0.3}}, duration);
}

tiadc_config ideal_config(int bits = 16, double jitter = 0.0) {
    tiadc_config tc;
    tc.channel_rate_hz = 90.0 * MHz;
    tc.quant.bits = bits;
    tc.quant.full_scale = 1.5;
    tc.jitter_rms_s = jitter;
    tc.delay_element.step_s = 1.0 * ps;
    tc.delay_element.code_max = 1023;
    return tc;
}

TEST(BpTiadc, CapturesIdealSamples) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    bp_tiadc adc(ideal_config());
    adc.program_delay(180.0 * ps);
    const auto cap = adc.capture(sig, 1.0 * us, 256, 0);
    ASSERT_EQ(cap.even.size(), 256u);
    for (std::size_t k = 0; k < 32; ++k) {
        const double t = 1.0 * us + static_cast<double>(k) * cap.period_s;
        EXPECT_NEAR(cap.even[k], sig.value(t), 1e-4) << k;
        EXPECT_NEAR(cap.odd[k], sig.value(t + 180.0 * ps), 1e-4) << k;
    }
    EXPECT_DOUBLE_EQ(cap.rate(), 90.0 * MHz);
    EXPECT_DOUBLE_EQ(cap.true_delay_s, 180.0 * ps);
}

TEST(BpTiadc, DividedCaptureHalvesRate) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    bp_tiadc adc(ideal_config());
    adc.program_delay(180.0 * ps);
    const auto cap = adc.capture_divided(sig, 1.0 * us, 128, 2, 1);
    EXPECT_DOUBLE_EQ(cap.rate(), 45.0 * MHz);
    for (std::size_t k = 0; k < 16; ++k) {
        const double t = 1.0 * us + static_cast<double>(k) * cap.period_s;
        EXPECT_NEAR(cap.even[k], sig.value(t), 1e-4);
    }
}

TEST(BpTiadc, DelayProgrammingQuantisedByStep) {
    auto tc = ideal_config();
    tc.delay_element.step_s = 5.0 * ps;
    bp_tiadc adc(tc);
    const int code = adc.program_delay(183.0 * ps);
    EXPECT_EQ(code, 37); // 183/5 rounds to 37
    EXPECT_DOUBLE_EQ(adc.actual_delay(), 185.0 * ps);
}

TEST(BpTiadc, JitterPerturbsSamples) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    auto clean_cfg = ideal_config(16, 0.0);
    auto jitter_cfg = ideal_config(16, 3.0 * ps);
    bp_tiadc clean(clean_cfg), jittery(jitter_cfg);
    clean.program_delay(180.0 * ps);
    jittery.program_delay(180.0 * ps);
    const auto a = clean.capture(sig, 1.0 * us, 512, 0);
    const auto b = jittery.capture(sig, 1.0 * us, 512, 0);
    // Error rms ~ 2π·fc·σ·A/√2.
    std::vector<double> diff(512);
    for (std::size_t k = 0; k < 512; ++k)
        diff[k] = a.even[k] - b.even[k];
    const double expect = two_pi * 1.0 * GHz * 3.0 * ps * 0.8 / std::sqrt(2.0);
    EXPECT_NEAR(rms(diff), expect, 0.3 * expect);
}

TEST(BpTiadc, ChannelMismatchIsModelled) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    auto tc = ideal_config();
    tc.ch1_gain_error = 0.1;
    tc.ch1_offset_error = 0.05;
    bp_tiadc adc(tc);
    adc.program_delay(0.0);
    // Note: zero delay keeps both channels sampling (nearly) the same
    // instants so the mismatch shows directly.
    const auto cap = adc.capture(sig, 1.0 * us, 1024, 0);
    EXPECT_NEAR(mean(cap.odd) - mean(cap.even), 0.05, 5e-3);
    const double r0 = rms(cap.even);
    const double r1 = rms(cap.odd);
    EXPECT_NEAR(r1 / r0, 1.1, 0.02);
}

TEST(BpTiadc, InputScaleAttenuates) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    bp_tiadc adc(ideal_config());
    adc.program_delay(100.0 * ps);
    adc.set_input_scale(0.5);
    const auto cap = adc.capture(sig, 1.0 * us, 256, 0);
    EXPECT_NEAR(max_abs(cap.even), 0.4, 0.02); // 0.8 amplitude × 0.5
}

TEST(BpTiadc, AutoRangeTargetsHeadroom) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    bp_tiadc adc(ideal_config());
    adc.program_delay(100.0 * ps);
    const auto r = adc.auto_range(sig, 1.0 * us, 256, 0.7);
    EXPECT_NEAR(r.observed_peak, 0.8, 0.02);
    EXPECT_NEAR(r.input_scale, 0.7 * 1.5 / 0.8, 0.05);
    EXPECT_FALSE(r.clipped);
    const auto cap = adc.capture(sig, 1.0 * us, 512, 0);
    EXPECT_NEAR(max_abs(cap.even), 0.7 * 1.5, 0.05);
}

TEST(BpTiadc, RangesOnTheCapturedSamples) {
    // Two tones peaking above full scale: unranged, the converters clip.
    const rf::multitone_signal sig({{1.0 * GHz, 1.2, 0.3},
                                    {1.013 * GHz, 0.9, 1.1}},
                                   20.0 * us);
    const auto tc = ideal_config(10, 3.0 * ps);
    bp_tiadc ranged(tc);
    ranged.program_delay(180.0 * ps);
    const auto fast = ranged.sample(sig, 1.0 * us, 512, 1, 0);
    const auto slow = ranged.sample(sig, 1.0 * us, 256, 2, 1);
    const auto r = ranged.range({&fast, &slow});
    EXPECT_EQ(ranged.input_scale(), r.input_scale);

    double peak = 0.0;
    double scaled_peak = 0.0;
    for (const auto* rec : {&fast, &slow})
        for (const auto* channel : {&rec->even, &rec->odd})
            for (const double v : *channel) {
                peak = std::max(peak, std::abs(v));
                scaled_peak =
                    std::max(scaled_peak, std::abs(r.input_scale * v));
            }
    EXPECT_EQ(r.observed_peak, peak);
    EXPECT_TRUE(r.clipped);
    // The largest attenuated sample lands at the headroom, to the ulp.
    const double target = 0.7 * tc.quant.full_scale;
    EXPECT_LE(std::abs(scaled_peak - target),
              std::nextafter(target, 2.0 * target) - target);

    // No captured sample clips: every one stays inside the rails, whose
    // quantised value is ±(full scale − LSB/2).
    const double rail =
        tc.quant.full_scale - 0.5 * quantizer(tc.quant).lsb();
    const auto q_fast = ranged.quantize(fast);
    const auto q_slow = ranged.quantize(slow);
    for (const auto* rec : {&q_fast, &q_slow}) {
        EXPECT_LT(max_abs(rec->even), rail);
        EXPECT_LT(max_abs(rec->odd), rail);
    }

    // The jitter draws are the unranged sampler's: its records, quantised
    // through the same attenuator, are the ranged capture bit for bit.
    bp_tiadc unranged(tc);
    unranged.program_delay(180.0 * ps);
    const auto plain = unranged.sample(sig, 1.0 * us, 512, 1, 0);
    EXPECT_EQ(plain.even, fast.even);
    EXPECT_EQ(plain.odd, fast.odd);
    unranged.set_input_scale(r.input_scale);
    const auto c_fast = unranged.capture(sig, 1.0 * us, 512, 0);
    const auto c_slow = unranged.capture_divided(sig, 1.0 * us, 256, 2, 1);
    EXPECT_EQ(c_fast.even, q_fast.even);
    EXPECT_EQ(c_fast.odd, q_fast.odd);
    EXPECT_EQ(c_slow.even, q_slow.even);
    EXPECT_EQ(c_slow.odd, q_slow.odd);

    // A silent record cannot be ranged, nor a headroom outside ]0, 1[.
    nonuniform_capture silent;
    silent.even.assign(4, 0.0);
    silent.odd.assign(4, 0.0);
    EXPECT_THROW(ranged.range({&silent}), contract_violation);
    EXPECT_THROW(ranged.range({&fast}, 1.0), contract_violation);
}

TEST(BpTiadc, CaptureIndexDecorrelatesJitter) {
    const auto sig = tone_at(1.0 * GHz, 20.0 * us);
    bp_tiadc adc(ideal_config(16, 3.0 * ps));
    adc.program_delay(180.0 * ps);
    const auto a = adc.capture(sig, 1.0 * us, 128, 0);
    const auto b = adc.capture(sig, 1.0 * us, 128, 0); // same index
    const auto c = adc.capture(sig, 1.0 * us, 128, 1); // fresh jitter
    EXPECT_EQ(a.even, b.even);
    EXPECT_NE(a.even, c.even);
}

TEST(BpTiadc, Preconditions) {
    auto tc = ideal_config();
    bp_tiadc adc(tc);
    const auto sig = tone_at(1.0 * GHz, 5.0 * us);
    EXPECT_THROW((void)adc.capture(sig, 1.0 * us, 1, 0), contract_violation);
    // Record exceeding the signal span.
    EXPECT_THROW((void)adc.capture(sig, 4.9 * us, 512, 0),
                 contract_violation);
    EXPECT_THROW(adc.set_input_scale(0.0), contract_violation);
    EXPECT_THROW((void)adc.auto_range(sig, 1.0 * us, 4), contract_violation);
}

} // namespace
