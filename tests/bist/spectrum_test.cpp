// Spectrum path tests: direct envelope reconstruction -> PSD, and the
// envelope's error bound against the dense passband grid + DDC yardstick
// (pnbs_reconstructor::uniform then dsp::digital_downconvert).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "adc/tiadc.hpp"
#include "bist/spectrum.hpp"
#include "core/contracts.hpp"
#include "core/units.hpp"
#include "dsp/ddc.hpp"
#include "rf/passband.hpp"
#include "support/envelope_check.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::bist;

/// Reconstructor over noise-free records of `sig` (400 pairs from 1 µs).
sampling::pnbs_reconstructor tone_reconstructor(const sampling::band_spec& band,
                                                const rf::passband_signal& sig,
                                                double delay) {
    const double period = 1.0 / band.bandwidth();
    const double t_start = 1.0 * us;
    const std::size_t n = 400;
    std::vector<double> even(n), odd(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double t = t_start + static_cast<double>(k) * period;
        even[k] = sig.value(t);
        odd[k] = sig.value(t + delay);
    }
    return sampling::pnbs_reconstructor(std::move(even), std::move(odd),
                                        period, t_start, band, delay,
                                        {61, 8.0});
}

/// reconstruct_envelope against the dense+DDC yardstick on the same
/// timeline: the largest difference beyond one FIR half-span (the longer
/// of the two FIRs', in envelope samples) from either record edge, and the
/// yardstick's peak magnitude.
struct yardstick_diff {
    double interior = 0.0;
    double peak = 0.0;
    std::size_t edge = 0;
};

yardstick_diff compare_to_yardstick(const sampling::pnbs_reconstructor& recon,
                                    const spectrum_options& opt) {
    const auto plan = plan_envelope(recon, opt);
    const auto env = reconstruct_envelope(recon, opt);

    const auto x = recon.uniform(plan.t0, plan.dense_rate, plan.n_dense);
    dsp::ddc_options ddc = plan.lowpass;
    ddc.carrier_hz = plan.mix_frequency;
    ddc.sample_rate = plan.dense_rate;
    ddc.decimation = plan.decimation;
    auto ref = dsp::digital_downconvert(x, ddc);
    const auto rot = std::polar(1.0, -two_pi * plan.mix_frequency * plan.t0);
    for (auto& v : ref)
        v *= rot;

    EXPECT_EQ(env.samples.size(), plan.count);
    EXPECT_EQ(ref.size(), plan.count);
    EXPECT_EQ(env.rate, plan.dense_rate / static_cast<double>(plan.decimation));
    EXPECT_EQ(env.t0, recon.valid_begin());

    yardstick_diff d;
    const std::size_t half_ref = dsp::ddc_lowpass(ddc).size() / 2;
    const std::size_t half_new = dsp::ddc_lowpass(plan.lowpass).size() / 2;
    d.edge = std::max((half_ref + plan.decimation - 1) / plan.decimation,
                      (half_new + plan.oversample - 1) / plan.oversample);
    for (const auto& v : ref)
        d.peak = std::max(d.peak, std::abs(v));
    for (std::size_t i = d.edge; i + d.edge < ref.size(); ++i)
        d.interior = std::max(d.interior, std::abs(env.samples[i] - ref[i]));
    return d;
}

/// The Re-identity of the envelope instants reconstruct_envelope evaluates.
void expect_re_identity(const sampling::pnbs_reconstructor& recon,
                        const spectrum_options& opt) {
    const auto plan = plan_envelope(recon, opt);
    const auto r = sdrbist::testing::check_re_identity(
        recon, plan.t0, plan.lowpass.sample_rate,
        (plan.count - 1) * plan.oversample + 1, plan.mix_frequency);
    EXPECT_GT(r.peak, 0.5);
    EXPECT_LE(r.max_err, 1e-12 * r.peak);
}

TEST(AutoWelchSegment, ScalesWithResolutionNeed) {
    // Wide signal: coarse segments suffice.
    EXPECT_EQ(auto_welch_segment(360.0 * MHz, 15.0 * MHz, 100000), 1024u);
    // Narrow signal: finer bins required.
    EXPECT_GT(auto_welch_segment(360.0 * MHz, 2.7 * MHz, 100000), 4096u);
    // Limited record caps the segment.
    EXPECT_LE(auto_welch_segment(360.0 * MHz, 2.7 * MHz, 2048), 1024u);
    EXPECT_THROW(auto_welch_segment(0.0, 1e6, 4096), contract_violation);
}

TEST(SpectrumPath, ToneReconstructsToOffsetLine) {
    // Capture a pure in-band tone and verify the PSD puts it at the right
    // carrier offset.
    const double fc = 1.0 * GHz;
    const double off = 9.0 * MHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    rf::multitone_signal sig({{fc + off, 0.8, 0.2}}, 30.0 * us);

    adc::tiadc_config tc;
    tc.channel_rate_hz = 90.0 * MHz;
    tc.quant.bits = 12;
    tc.quant.full_scale = 1.2;
    tc.jitter_rms_s = 0.0;
    tc.delay_element.step_s = 1.0 * ps;
    adc::bp_tiadc adc(tc);
    adc.program_delay(180.0 * ps);
    const auto cap = adc.capture(sig, 1.0 * us, 1024, 0);

    const sampling::pnbs_reconstructor recon(cap.even, cap.odd, cap.period_s,
                                             cap.t_start, band,
                                             cap.true_delay_s, {61, 8.0});
    spectrum_options opt;
    const auto env = reconstruct_envelope(recon, opt);
    EXPECT_GT(env.rate, 2.0 * (off + 5.0 * MHz));
    EXPECT_GT(env.samples.size(), 512u);

    const auto psd = envelope_psd(env, 512);
    // Peak within one bin of the expected offset.
    double best_f = 0.0, best_p = 0.0;
    for (std::size_t i = 0; i < psd.frequency.size(); ++i)
        if (psd.density[i] > best_p) {
            best_p = psd.density[i];
            best_f = psd.frequency[i];
        }
    EXPECT_NEAR(best_f, off, env.rate / 512.0 + 1.0);
}

TEST(SpectrumPath, EnvelopePhaseIsAbsoluteTimeReferenced) {
    // For a tone at exactly fc the reconstructed envelope must be a
    // constant phasor carrying the tone's phase.
    const double fc = 1.0 * GHz;
    const double phase = 0.6;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    rf::multitone_signal sig({{fc, 0.8, phase}}, 30.0 * us);

    adc::tiadc_config tc;
    tc.channel_rate_hz = 90.0 * MHz;
    tc.quant.bits = 14;
    tc.quant.full_scale = 1.2;
    tc.jitter_rms_s = 0.0;
    tc.delay_element.step_s = 1.0 * ps;
    adc::bp_tiadc adc(tc);
    adc.program_delay(180.0 * ps);
    const auto cap = adc.capture(sig, 1.0 * us, 1024, 0);

    const sampling::pnbs_reconstructor recon(cap.even, cap.odd, cap.period_s,
                                             cap.t_start, band,
                                             cap.true_delay_s, {81, 8.0});
    const auto env = reconstruct_envelope(recon, {});
    for (std::size_t m = env.samples.size() / 4;
         m < 3 * env.samples.size() / 4; m += 7) {
        EXPECT_NEAR(std::abs(env.samples[m]), 0.8, 0.02);
        EXPECT_NEAR(std::arg(env.samples[m]), phase, 0.03);
    }
}

TEST(SpectrumPath, MixFrequencyOverride) {
    // Mixing at fc when the band centre is offset re-centres the envelope.
    const double fc = 1.0 * GHz;
    const auto band = sampling::band_around(fc + 4.5 * MHz, 90.0 * MHz);
    rf::multitone_signal sig({{fc, 0.8, 0.0}}, 30.0 * us);

    adc::tiadc_config tc;
    tc.channel_rate_hz = 90.0 * MHz;
    tc.quant.bits = 14;
    tc.quant.full_scale = 1.2;
    tc.jitter_rms_s = 0.0;
    tc.delay_element.step_s = 1.0 * ps;
    adc::bp_tiadc adc(tc);
    adc.program_delay(180.0 * ps);
    const auto cap = adc.capture(sig, 1.0 * us, 1024, 0);

    const sampling::pnbs_reconstructor recon(cap.even, cap.odd, cap.period_s,
                                             cap.t_start, band,
                                             cap.true_delay_s, {81, 8.0});
    spectrum_options opt;
    opt.mix_frequency = fc;
    const auto env = reconstruct_envelope(recon, opt);
    // Tone at fc mixed at fc -> DC phasor.
    for (std::size_t m = env.samples.size() / 4;
         m < 3 * env.samples.size() / 4; m += 11)
        EXPECT_NEAR(std::arg(env.samples[m]), 0.0, 0.05);
}

// The yardstick bound is for content near the mix frequency, where the
// pipeline's graded signal sits, within a sixteenth of the cutoff: both
// FIRs are flat to ~5e-5 there.  Further out their passband ripples
// differ: up to ~1e-4 for the envelope-rate FIR and 7.8e-4 for the
// yardstick's dense-rate one (24 MHz off the paper band's centre; its
// Kaiser length estimate undershoots 70 dB at ~150 taps).  There the
// envelope is bounded against the true tone phasors instead
// (EnvelopeTracksTonePhasorsUpToCutoff).

TEST(SpectrumPath, EnvelopeMatchesDenseDdcYardstick) {
    const double fc = 1.0 * GHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    const rf::multitone_signal sig({{fc - 2.7 * MHz, 0.5, 0.3},
                                    {fc + 0.9 * MHz, 1.0, 1.9},
                                    {fc + 2.3 * MHz, 0.7, -2.2}},
                                   30.0 * us);
    const auto recon = tone_reconstructor(band, sig, 180.0 * ps);
    const spectrum_options opt;
    EXPECT_EQ(plan_envelope(recon, opt).oversample, 1u);
    const auto d = compare_to_yardstick(recon, opt);
    EXPECT_GT(d.peak, 1.0);
    EXPECT_LE(d.interior, 1e-4 * d.peak);
    expect_re_identity(recon, opt);
}

TEST(SpectrumPath, S0VanishingBandMatchesDenseDdcYardstick) {
    // 2·f_lo/B = 10: the kernel's s0 term vanishes (g0 = 0) and the
    // envelope comes from the s1 term alone.
    const sampling::band_spec band{450.0 * MHz, 540.0 * MHz};
    const rf::multitone_signal sig({{492.4 * MHz, 0.6, 0.1},
                                    {495.6 * MHz, 1.0, -0.7},
                                    {497.8 * MHz, 0.8, 2.9}},
                                   30.0 * us);
    const auto recon = tone_reconstructor(band, sig, 310.0 * ps);
    ASSERT_TRUE(recon.kernel().s0_vanishes());
    const spectrum_options opt;
    const auto d = compare_to_yardstick(recon, opt);
    EXPECT_GT(d.peak, 1.0);
    EXPECT_LE(d.interior, 1e-4 * d.peak);
    expect_re_identity(recon, opt);
}

/// A 6 MHz cutoff about a mix frequency 20 MHz below the paper band's
/// centre, at the envelope rate the pipeline would pick (2.4 × cutoff).
spectrum_options narrow_off_centre(double mix) {
    spectrum_options opt;
    opt.mix_frequency = mix;
    opt.ddc_cutoff_hz = 6.0 * MHz;
    opt.envelope_rate_min = 2.4 * opt.ddc_cutoff_hz;
    return opt;
}

TEST(SpectrumPath, NarrowCutoffOffCentreMixOversamples) {
    // The envelope rate is far below the band's reach from the mix
    // frequency, so the envelope is evaluated at M > 1 times that rate
    // before the FIR takes it down.
    const double fc = 1.0 * GHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    const double mix = fc - 20.0 * MHz;
    const rf::multitone_signal sig({{mix - 0.33 * MHz, 0.6, 0.8},
                                    {mix + 0.11 * MHz, 1.0, -1.5},
                                    {mix + 0.36 * MHz, 0.5, 2.0}},
                                   30.0 * us);
    const auto recon = tone_reconstructor(band, sig, 180.0 * ps);
    const auto opt = narrow_off_centre(mix);
    EXPECT_GT(plan_envelope(recon, opt).oversample, 1u);
    const auto d = compare_to_yardstick(recon, opt);
    EXPECT_GT(d.peak, 1.0);
    EXPECT_LE(d.interior, 1e-4 * d.peak);
    expect_re_identity(recon, opt);
}

TEST(SpectrumPath, EnvelopeTracksTonePhasorsUpToCutoff) {
    // One tone at a time across the passband (kept 8 MHz inside the band
    // edges, where the truncated kernel holds its accuracy), M = 1 and
    // M > 1: beyond the
    // FIR's half-span from the edges the envelope is the tone's phasor
    // A·e^{j(2π·(f - f_mix)·t + φ)} to within the truncated kernel's
    // error plus the FIR's passband ripple.
    const double fc = 1.0 * GHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    const spectrum_options wide;
    for (const auto& opt : {wide, narrow_off_centre(fc - 20.0 * MHz)}) {
        const double mix =
            opt.mix_frequency > 0.0 ? opt.mix_frequency : fc;
        const double cutoff = opt.ddc_cutoff_hz > 0.0 ? opt.ddc_cutoff_hz
                                                      : 0.55 * 90.0 * MHz;
        for (const double at : {-0.7, -0.45, -0.2, 0.1, 0.35, 0.7}) {
            const double off = at * cutoff;
            const double a = 0.9;
            const double phase = 1.1;
            const rf::multitone_signal sig({{mix + off, a, phase}},
                                           30.0 * us);
            const auto recon = tone_reconstructor(band, sig, 180.0 * ps);
            const auto plan = plan_envelope(recon, opt);
            const auto env = reconstruct_envelope(recon, opt);
            const std::size_t edge =
                (dsp::ddc_lowpass(plan.lowpass).size() / 2 +
                 plan.oversample - 1) /
                plan.oversample;
            double worst = 0.0;
            for (std::size_t i = edge; i + edge < env.samples.size(); ++i) {
                const double t = env.t0 + static_cast<double>(i) / env.rate;
                worst = std::max(worst,
                                 std::abs(env.samples[i] -
                                          std::polar(a, two_pi * off * t +
                                                            phase)));
            }
            EXPECT_LE(worst, 2.5e-4 * a)
                << "cutoff " << cutoff << " offset " << off;
        }
    }
}

TEST(SpectrumPath, CutoffWiderThanTheBandStaysBelowTheFirNyquist) {
    // A cutoff past the band's reach from the mix frequency, at an
    // envelope rate below it: M grows until the FIR's cutoff is under its
    // own Nyquist edge, rather than failing the FIR design's contract.
    const double fc = 1.0 * GHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    const rf::multitone_signal sig({{fc + 1.0 * MHz, 1.0, 0.0}}, 30.0 * us);
    const auto recon = tone_reconstructor(band, sig, 180.0 * ps);
    spectrum_options opt;
    opt.ddc_cutoff_hz = 110.0 * MHz;
    opt.envelope_rate_min = 90.0 * MHz;
    const auto plan = plan_envelope(recon, opt);
    EXPECT_LT(plan.lowpass.cutoff_hz, plan.lowpass.sample_rate / 2.0);
    EXPECT_EQ(reconstruct_envelope(recon, opt).samples.size(), plan.count);
}

} // namespace
