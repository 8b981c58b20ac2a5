// Staged-pipeline lockdown.
//
// 1. Equivalence: `monolithic_run_verbose` below is a verbatim copy of the
//    pre-pipeline one-shot engine.  Every staged run must reproduce its
//    report *bit-for-bit* (compared through the full-fidelity
//    campaign::report_json serialisation, which renders doubles in
//    shortest round-trip form), and every stage output the session holds
//    must equal the monolith's artefact records element-exactly.  This is
//    the same retained-reference idiom the fast kernels use (the
//    yardsticks in tests/support/).
// 2. Session mechanics: run_until/resume, adopt_from (shared-stage reuse),
//    run_until through a snapshot store, and the per-stage digest slicing
//    the campaign runner's stage pool relies on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>

#include "bist/config_canonical.hpp"
#include "bist/faults.hpp"
#include "bist/pipeline.hpp"
#include "campaign/cache.hpp"
#include "core/contracts.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "dsp/biquad.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::bist;

// ---------------------------------------------------------------------------
// Retained monolithic reference (the pre-pipeline one-shot engine).
// Do not "improve" this copy: its whole value is staying frozen.  The one
// deliberate edit follows a change of the capture hardware model: ranging
// now runs on the sampled records (bp_tiadc::range) instead of a scan.
// ---------------------------------------------------------------------------

/// Every intermediate record the monolith produced.
struct monolith_artifacts {
    waveform::baseband_waveform stimulus;    ///< the graded waveform
    waveform::baseband_waveform calibration; ///< the skew-calibration one
    rf::tx_output tx_out;                    ///< DUT output, graded wf
    rf::tx_output calibration_tx_out;        ///< DUT output, calibration wf
    std::shared_ptr<const rf::envelope_passband> capture_input;
    std::shared_ptr<const rf::envelope_passband> spectrum_input;
    adc::ranging_result ranging;          ///< estimation-phase ranging
    adc::ranging_result spectrum_ranging; ///< grading-phase ranging
    calib::dual_rate_capture capture;
    adc::nonuniform_capture spectrum_capture; ///< wide-band, fast rate
    std::vector<double> probe_times;
    reconstructed_envelope envelope;
};

double occupied_bandwidth_ref(const waveform::generator_config& g) {
    return g.symbol_rate * (1.0 + g.rolloff);
}

std::pair<bist_report, monolith_artifacts>
monolithic_run_verbose(const bist_config& config) {
    bist_report report;
    monolith_artifacts art;

    const double nominal_carrier = config.preset.default_carrier_hz;
    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    report.preset_name = config.preset.name;
    report.evm_limit_percent = config.evm_limit_percent;

    art.stimulus = waveform::generate_baseband(config.preset.stimulus);
    waveform::generator_config cal_cfg = config.use_calibration_stimulus
                                             ? config.calibration_stimulus
                                             : config.preset.stimulus;
    if (config.use_calibration_stimulus &&
        (occupied_bandwidth_ref(cal_cfg) > 0.75 * b1))
        cal_cfg.symbol_rate = 0.22 * b1 / (1.0 + cal_cfg.rolloff) * 1.5;
    art.calibration = waveform::generate_baseband(cal_cfg);

    const double occ_cal = occupied_bandwidth_ref(cal_cfg);
    const double occ_graded = occupied_bandwidth_ref(config.preset.stimulus);
    const double occ_max = std::max(occ_cal, occ_graded);
    constexpr double disc_threshold = 1e-2;
    calib::band_plan plan{};
    double carrier = nominal_carrier;
    {
        double best_disc = -1.0;
        calib::band_plan best_plan{};
        double best_carrier = nominal_carrier;
        for (const double frac :
             {0.0, 0.25, -0.25, 0.125, -0.125, 0.375, -0.375}) {
            const double cand_carrier = nominal_carrier + frac * b1;
            const auto cand_plan = calib::choose_band_plan(
                cand_carrier, b, b1, occ_cal, occ_max, disc_threshold);
            const double disc = calib::dual_rate_discrimination(
                cand_plan, cand_carrier, occ_cal);
            if (disc > best_disc) {
                best_disc = disc;
                best_plan = cand_plan;
                best_carrier = cand_carrier;
            }
            if (disc >= disc_threshold)
                break;
        }
        plan = best_plan;
        carrier = best_carrier;
        report.plan_discrimination = best_disc;
    }
    report.carrier_hz = carrier;
    report.carrier_nudge_hz = carrier - nominal_carrier;
    report.slow_band_offset_hz = plan.slow_offset_hz;
    report.fast_band_offset_hz = plan.fast_offset_hz;

    rf::tx_config txc = config.tx;
    txc.carrier_hz = carrier;
    const rf::homodyne_tx tx(txc);
    art.tx_out = tx.transmit(art.stimulus);
    art.calibration_tx_out = tx.transmit(art.calibration);

    auto filtered_input = [&](const rf::tx_output& source, double halfwidth) {
        halfwidth = std::min(halfwidth, 0.4 * source.envelope_rate);
        auto bpf = dsp::butterworth_lowpass(config.capture_filter_order,
                                            halfwidth, source.envelope_rate);
        auto filtered = bpf.filter(std::span<const std::complex<double>>(
            source.envelope.data(), source.envelope.size()));
        return std::make_shared<rf::envelope_passband>(
            std::move(filtered), source.envelope_rate, source.carrier_hz);
    };
    {
        const double slow_cover = b1 / 2.0 - std::abs(plan.slow_offset_hz);
        const double narrow = config.capture_filter_halfwidth_hz > 0.0
                                  ? config.capture_filter_halfwidth_hz
                                  : std::min(0.42 * b1, 0.95 * slow_cover);
        const double fast_cover = b / 2.0 - std::abs(plan.fast_offset_hz);
        const double wide = config.spectrum_filter_halfwidth_hz > 0.0
                                ? config.spectrum_filter_halfwidth_hz
                                : 0.9 * fast_cover;
        art.capture_input = filtered_input(art.calibration_tx_out, narrow);
        art.spectrum_input = filtered_input(art.tx_out, wide);
    }

    adc::bp_tiadc sampler(config.tiadc);
    sampler.program_delay(config.dcde_target_delay_s);
    report.programmed_delay_s = config.dcde_target_delay_s;

    const double cal_ramp =
        static_cast<double>(art.calibration.shaper_delay_samples) /
        art.calibration.sample_rate;
    const double cal_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : art.capture_input->begin_time() + cal_ramp + 0.1 * us;
    const std::size_t cal_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(
            std::ceil(64.0 * b / cal_cfg.symbol_rate)));
    SDRBIST_EXPECTS(cal_t_start + static_cast<double>(cal_samples) / b <
                    art.capture_input->end_time());

    auto fast = sampler.sample(*art.capture_input, cal_t_start, cal_samples,
                               1, /*capture*/ 0);
    auto slow = sampler.sample(*art.capture_input, cal_t_start,
                               cal_samples / config.slow_divider,
                               config.slow_divider, /*capture*/ 1);
    if (config.auto_range)
        art.ranging = sampler.range({&fast, &slow});
    art.capture.fast = sampler.quantize(std::move(fast));
    art.capture.slow = sampler.quantize(std::move(slow));
    art.capture.band_fast = plan.fast;
    art.capture.band_slow = plan.slow;

    report.dual_rate_conditions_ok =
        calib::dual_rate_conditions_ok(art.capture);
    report.max_search_delay_s = calib::max_search_delay(art.capture);
    if (!report.dual_rate_conditions_ok)
        return {report, art};

    const auto [probe_lo, probe_hi] =
        calib::valid_probe_interval(art.capture, config.lms.recon);
    rng probe_gen(config.probe_seed);
    art.probe_times = calib::make_probe_times(probe_gen, config.probe_count,
                                              probe_lo, probe_hi);
    const double d0 = config.d0_hint_s > 0.0
                          ? config.d0_hint_s
                          : 0.5 * report.max_search_delay_s;
    const calib::lms_skew_estimator estimator(config.lms);
    report.skew = estimator.estimate(art.capture, d0, art.probe_times);

    const double spec_ramp =
        static_cast<double>(art.stimulus.shaper_delay_samples) /
        art.stimulus.sample_rate;
    const double spec_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : art.spectrum_input->begin_time() + spec_ramp + 0.1 * us;
    const std::size_t spec_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(
            std::ceil(80.0 * b / config.preset.stimulus.symbol_rate)));
    SDRBIST_EXPECTS(spec_t_start + static_cast<double>(spec_samples) / b <
                    art.spectrum_input->end_time());

    auto spectrum = sampler.sample(*art.spectrum_input, spec_t_start,
                                   spec_samples, 1, /*capture*/ 2);
    if (config.auto_range)
        art.spectrum_ranging = sampler.range({&spectrum});
    art.spectrum_capture = sampler.quantize(std::move(spectrum));

    const sampling::pnbs_reconstructor recon(
        art.spectrum_capture.even, art.spectrum_capture.odd,
        art.spectrum_capture.period_s, art.spectrum_capture.t_start,
        art.capture.band_fast, report.skew.d_hat, config.lms.recon);
    spectrum_options spec_opt = config.spectrum;
    if (spec_opt.mix_frequency <= 0.0)
        spec_opt.mix_frequency = carrier;
    if (spec_opt.ddc_cutoff_hz <= 0.0) {
        const double mix_shift = std::abs(spec_opt.mix_frequency -
                                          art.capture.band_fast.centre());
        spec_opt.ddc_cutoff_hz =
            std::min(0.55 * b + mix_shift, 4.6 * occ_graded + mix_shift);
    }
    if (spec_opt.envelope_rate_min <= 0.0)
        spec_opt.envelope_rate_min = 2.4 * spec_opt.ddc_cutoff_hz;
    art.envelope = reconstruct_envelope(recon, spec_opt);

    const std::size_t welch_segment =
        config.spectrum.welch_segment > 0
            ? config.spectrum.welch_segment
            : auto_welch_segment(art.envelope.rate, occ_graded,
                                 art.envelope.samples.size());
    const auto psd = envelope_psd(art.envelope, welch_segment);
    report.mask = config.preset.mask.check(psd);

    {
        const double offset =
            config.acpr_offset_hz > 0.0 ? config.acpr_offset_hz
            : config.preset.acpr_offset_hz > 0.0
                ? config.preset.acpr_offset_hz
                : 1.5 * occ_graded;
        report.acpr = waveform::measure_acpr(psd, occ_graded, offset);
        report.acpr_limit_dbc = config.acpr_limit_dbc;
        report.acpr_pass = config.acpr_limit_dbc >= 0.0 ||
                           report.acpr.worst_dbc() <= config.acpr_limit_dbc;
        report.occupied_bw_hz = waveform::occupied_bandwidth(psd, 0.99);
    }

    waveform::evm_options evm_opt;
    evm_opt.envelope_t0 = art.envelope.t0;
    report.evm = waveform::measure_evm(
        std::span<const std::complex<double>>(art.envelope.samples.data(),
                                              art.envelope.samples.size()),
        art.envelope.rate, art.stimulus, evm_opt);
    report.evm_pass = report.evm.evm_percent() <= config.evm_limit_percent;

    {
        const double scale =
            config.auto_range ? art.spectrum_ranging.input_scale : 1.0;
        report.measured_output_rms =
            rms(art.spectrum_capture.even) / scale;
        report.min_output_rms = config.min_output_rms;
        report.power_pass = config.min_output_rms <= 0.0 ||
                            report.measured_output_rms >=
                                config.min_output_rms;
    }

    return {report, art};
}

// ---------------------------------------------------------------------------

bist_config golden_config() {
    bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    return cfg;
}

/// Configurations spanning the flow's branches: defaults, DCDE static
/// error + d0 hint, an injected fault with power/ACPR limits, manual
/// filter/welch/ranging settings, a second preset without the dedicated
/// calibration stimulus, and the two presets whose nominal carriers have
/// band plans that are blind by construction (the stimulus stage defers
/// them; the monolith measures every plan of every carrier it tries).
std::vector<std::pair<std::string, bist_config>> equivalence_configs() {
    std::vector<std::pair<std::string, bist_config>> cases;
    cases.emplace_back("golden", golden_config());
    {
        auto cfg = golden_config();
        cfg.tiadc.delay_element.static_error_s = 12.0 * ps;
        cfg.d0_hint_s = 100.0 * ps;
        cases.emplace_back("dcde-static-error", cfg);
    }
    {
        auto cfg = golden_config();
        cfg.tx = inject_fault(cfg.tx, fault_kind::pa_overdrive);
        cfg.min_output_rms = 1.2;
        cfg.acpr_limit_dbc = -25.0;
        cases.emplace_back("pa-overdrive-fault", cfg);
    }
    {
        auto cfg = golden_config();
        cfg.auto_range = false;
        cfg.capture_filter_halfwidth_hz = 18e6;
        cfg.spectrum_filter_halfwidth_hz = 40e6;
        cfg.spectrum.welch_segment = 512;
        cfg.acpr_offset_hz = 20e6;
        cases.emplace_back("manual-knobs", cfg);
    }
    {
        auto cfg = golden_config();
        cfg.preset = waveform::find_preset("tactical-bpsk-2M");
        cfg.use_calibration_stimulus = false;
        cases.emplace_back("bpsk-no-cal-stimulus", cfg);
    }
    {
        auto cfg = golden_config();
        cfg.preset = waveform::find_preset("tactical-bpsk-2M");
        cases.emplace_back("bpsk-cal-stimulus", cfg);
    }
    {
        auto cfg = golden_config();
        cfg.preset = waveform::find_preset("psk8-5M");
        cases.emplace_back("psk8", cfg);
    }
    return cases;
}

void expect_same_waveform(const waveform::baseband_waveform& a,
                          const waveform::baseband_waveform& b) {
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.sample_rate, b.sample_rate);
}

void expect_same_tx(const rf::tx_output& a, const rf::tx_output& b) {
    EXPECT_EQ(a.envelope, b.envelope);
    EXPECT_EQ(a.envelope_rate, b.envelope_rate);
}

TEST(PipelineEquivalence, StagedRunIsBitIdenticalToMonolith) {
    for (const auto& [name, cfg] : equivalence_configs()) {
        SCOPED_TRACE(name);
        const auto [mono_report, mono] = monolithic_run_verbose(cfg);
        bist_session session(cfg);
        session.run();

        // Full report, every double in shortest round-trip form.
        EXPECT_EQ(campaign::report_json(session.report()),
                  campaign::report_json(mono_report));

        // Stage outputs element-exact against the monolith's records.
        const auto& stim = session.stimulus();
        expect_same_waveform(stim.stimulus, mono.stimulus);
        expect_same_waveform(stim.calibration, mono.calibration);

        const auto& tx = session.tx_capture();
        expect_same_tx(tx.tx_out, mono.tx_out);
        expect_same_tx(tx.calibration_tx_out, mono.calibration_tx_out);
        EXPECT_EQ(tx.capture_input->envelope_samples(),
                  mono.capture_input->envelope_samples());
        EXPECT_EQ(tx.spectrum_input->envelope_samples(),
                  mono.spectrum_input->envelope_samples());
        EXPECT_EQ(tx.ranging.input_scale, mono.ranging.input_scale);
        EXPECT_EQ(tx.capture.fast.even, mono.capture.fast.even);
        EXPECT_EQ(tx.capture.fast.odd, mono.capture.fast.odd);
        EXPECT_EQ(tx.capture.slow.even, mono.capture.slow.even);
        EXPECT_EQ(tx.capture.slow.odd, mono.capture.slow.odd);

        EXPECT_EQ(session.calibration().probe_times, mono.probe_times);

        const auto& recon = session.reconstruction();
        EXPECT_EQ(recon.spectrum_capture.even, mono.spectrum_capture.even);
        EXPECT_EQ(recon.spectrum_capture.odd, mono.spectrum_capture.odd);
        EXPECT_EQ(recon.envelope.samples, mono.envelope.samples);
        EXPECT_DOUBLE_EQ(recon.envelope.rate, mono.envelope.rate);
        EXPECT_EQ(recon.spectrum_ranging.input_scale,
                  mono.spectrum_ranging.input_scale);
    }
}

// ---------------------------------------------------------------------------
// Session mechanics
// ---------------------------------------------------------------------------

TEST(PipelineSession, RunUntilStopsAndResumes) {
    bist_session session(golden_config());
    EXPECT_FALSE(session.completed(stage::stimulus));
    EXPECT_THROW(static_cast<void>(session.stimulus()), contract_violation);

    EXPECT_TRUE(session.run_until(stage::calibration));
    EXPECT_TRUE(session.completed(stage::stimulus));
    EXPECT_TRUE(session.completed(stage::tx_capture));
    EXPECT_TRUE(session.completed(stage::calibration));
    EXPECT_FALSE(session.completed(stage::reconstruction));
    EXPECT_FALSE(session.completed(stage::grading));
    EXPECT_THROW(static_cast<void>(session.reconstruction()),
                 contract_violation);

    // The partial report carries exactly the completed stages' fields.
    const auto partial = session.report();
    EXPECT_TRUE(partial.dual_rate_conditions_ok);
    EXPECT_TRUE(partial.skew.converged);
    EXPECT_FALSE(partial.mask.pass); // grading has not run

    // Resuming completes the flow; the result is bit-identical to a fresh
    // one-shot run.
    EXPECT_TRUE(session.run_until(stage::grading));
    const auto one_shot = bist_engine(golden_config()).run();
    EXPECT_EQ(campaign::report_json(session.report()),
              campaign::report_json(one_shot));
}

TEST(PipelineSession, AdoptFromKeepsProvablyUnchangedStages) {
    auto cfg = golden_config();
    bist_session donor(cfg);
    donor.run();

    // A grading-only change: everything up to reconstruction is shared
    // (same objects, not recomputed equals).
    auto graded = cfg;
    graded.evm_limit_percent = 1.0;
    graded.preset.mask = waveform::make_strict_mask(10e6, 0.5);
    bist_session adopted(graded);
    adopted.adopt_from(donor, stage::reconstruction);
    EXPECT_TRUE(adopted.completed(stage::reconstruction));
    EXPECT_FALSE(adopted.completed(stage::grading));
    EXPECT_EQ(&adopted.stimulus(), &donor.stimulus());
    EXPECT_EQ(&adopted.reconstruction(), &donor.reconstruction());

    adopted.run();
    EXPECT_EQ(campaign::report_json(adopted.report()),
              campaign::report_json(bist_engine(graded).run()));

    // An upstream change (different Tx seed) shares only the stimulus, and
    // adopting it drops the adopting session's own downstream stages.
    auto reseeded = graded;
    reseeded.tx.seed = 0x1234;
    bist_session session(reseeded);
    session.run_until(stage::calibration);
    session.adopt_from(donor, stage::stimulus);
    EXPECT_TRUE(session.completed(stage::stimulus));
    EXPECT_FALSE(session.completed(stage::tx_capture));
    EXPECT_EQ(&session.stimulus(), &donor.stimulus());

    session.run();
    EXPECT_EQ(campaign::report_json(session.report()),
              campaign::report_json(bist_engine(reseeded).run()));
}

/// In-memory snapshot store that tallies its traffic per stage.
class counting_store final : public stage_snapshot_store {
public:
    std::array<int, stage_order.size()> loads{};
    std::array<int, stage_order.size()> stores{};

    std::shared_ptr<const stimulus_output>
    load_stimulus(std::uint64_t d) override {
        return find(stimulus_, d, stage::stimulus);
    }
    std::shared_ptr<const tx_capture_output>
    load_tx_capture(std::uint64_t d) override {
        return find(tx_capture_, d, stage::tx_capture);
    }
    std::shared_ptr<const calibration_output>
    load_calibration(std::uint64_t d) override {
        return find(calibration_, d, stage::calibration);
    }
    std::shared_ptr<const reconstruction_output>
    load_reconstruction(std::uint64_t d) override {
        return find(reconstruction_, d, stage::reconstruction);
    }
    std::shared_ptr<const grading_output>
    load_grading(std::uint64_t d) override {
        return find(grading_, d, stage::grading);
    }

    void store_stimulus(std::uint64_t d, const stimulus_output& o) override {
        keep(stimulus_, d, o, stage::stimulus);
    }
    void store_tx_capture(std::uint64_t d,
                          const tx_capture_output& o) override {
        keep(tx_capture_, d, o, stage::tx_capture);
    }
    void store_calibration(std::uint64_t d,
                           const calibration_output& o) override {
        keep(calibration_, d, o, stage::calibration);
    }
    void store_reconstruction(std::uint64_t d,
                              const reconstruction_output& o) override {
        keep(reconstruction_, d, o, stage::reconstruction);
    }
    void store_grading(std::uint64_t d, const grading_output& o) override {
        keep(grading_, d, o, stage::grading);
    }

private:
    template <typename T>
    using entries = std::map<std::uint64_t, std::shared_ptr<const T>>;

    template <typename T>
    std::shared_ptr<const T> find(const entries<T>& m, std::uint64_t d,
                                  stage s) {
        ++loads[static_cast<std::size_t>(stage_index(s))];
        const auto it = m.find(d);
        return it == m.end() ? nullptr : it->second;
    }
    template <typename T>
    void keep(entries<T>& m, std::uint64_t d, const T& o, stage s) {
        ++stores[static_cast<std::size_t>(stage_index(s))];
        m[d] = std::make_shared<const T>(o);
    }

    entries<stimulus_output> stimulus_;
    entries<tx_capture_output> tx_capture_;
    entries<calibration_output> calibration_;
    entries<reconstruction_output> reconstruction_;
    entries<grading_output> grading_;
};

TEST(PipelineSession, RunUntilAdoptsStoredPrefixAndPublishesWhatItComputes) {
    const auto cfg = golden_config();
    counting_store store;

    // Cold: one lookup misses, then every stage through the target is
    // computed and published.
    bist_session cold(cfg);
    EXPECT_TRUE(cold.run_until(stage::calibration, &store));
    EXPECT_EQ(store.loads, (std::array<int, 5>{1, 0, 0, 0, 0}));
    EXPECT_EQ(store.stores, (std::array<int, 5>{1, 1, 1, 0, 0}));

    // Warm: the stored prefix is adopted up to the first miss, and only the
    // stages computed after it are published.
    store.loads = store.stores = {};
    bist_session warm(cfg);
    EXPECT_TRUE(warm.run_until(stage::grading, &store));
    EXPECT_EQ(store.loads, (std::array<int, 5>{1, 1, 1, 1, 0}));
    EXPECT_EQ(store.stores, (std::array<int, 5>{0, 0, 0, 1, 1}));
    EXPECT_EQ(campaign::report_json(warm.report()),
              campaign::report_json(bist_engine(cfg).run()));

    // Stages already complete are neither looked up nor published.
    store.loads = store.stores = {};
    bist_session adopted(cfg);
    adopted.adopt_from(warm, stage::tx_capture);
    EXPECT_TRUE(adopted.run_until(stage::grading, &store));
    EXPECT_EQ(store.loads, (std::array<int, 5>{0, 0, 1, 1, 1}));
    EXPECT_EQ(store.stores, (std::array<int, 5>{0, 0, 0, 0, 0}));
    EXPECT_EQ(&adopted.tx_capture(), &warm.tx_capture());
}

TEST(PipelineSession, AdoptedPrefixMatchesIsolatedRunBitForBit) {
    auto base = golden_config();
    auto downstream = base;
    downstream.evm_limit_percent = 0.5;
    downstream.acpr_limit_dbc = -60.0;

    // The two configs differ only in grading knobs: every earlier stage's
    // input digest is provably equal.
    for (const stage s : {stage::stimulus, stage::tx_capture,
                          stage::calibration, stage::reconstruction})
        EXPECT_EQ(stage_input_digest(base, s),
                  stage_input_digest(downstream, s));
    EXPECT_NE(stage_input_digest(base, stage::grading),
              stage_input_digest(downstream, stage::grading));

    bist_session donor(base);
    donor.run();

    bist_session adopted(downstream);
    adopted.adopt_from(donor, stage::reconstruction);
    adopted.run();

    EXPECT_EQ(campaign::report_json(adopted.report()),
              campaign::report_json(bist_engine(downstream).run()));
}

TEST(StageDigest, SlicesKeyExactlyTheFieldsEachStageReads) {
    const auto base = golden_config();
    const auto digest = [](const bist_config& c, stage s) {
        return stage_input_digest(c, s);
    };

    {
        // Tx seed: first read by tx_capture.
        auto c = base;
        c.tx.seed ^= 1;
        EXPECT_EQ(digest(c, stage::stimulus), digest(base, stage::stimulus));
        EXPECT_NE(digest(c, stage::tx_capture),
                  digest(base, stage::tx_capture));
    }
    {
        // Probe seed: first read by calibration.
        auto c = base;
        c.probe_seed ^= 1;
        EXPECT_EQ(digest(c, stage::tx_capture),
                  digest(base, stage::tx_capture));
        EXPECT_NE(digest(c, stage::calibration),
                  digest(base, stage::calibration));
        EXPECT_NE(digest(c, stage::grading), digest(base, stage::grading));
    }
    {
        // DDC cutoff: first read by reconstruction.
        auto c = base;
        c.spectrum.ddc_cutoff_hz = 30e6;
        EXPECT_EQ(digest(c, stage::calibration),
                  digest(base, stage::calibration));
        EXPECT_NE(digest(c, stage::reconstruction),
                  digest(base, stage::reconstruction));
    }
    {
        // Mask / EVM limit: grading only.
        auto c = base;
        c.preset.mask = waveform::make_strict_mask(10e6, 0.5);
        c.evm_limit_percent = 1.0;
        EXPECT_EQ(digest(c, stage::reconstruction),
                  digest(base, stage::reconstruction));
        EXPECT_NE(digest(c, stage::grading), digest(base, stage::grading));
    }
    {
        // The preset *name* is presentation, not computation: no digest
        // moves, so renamed-but-identical presets share every stage.
        auto c = base;
        c.preset.name = "renamed";
        for (const stage s : stage_order)
            EXPECT_EQ(digest(c, s), digest(base, s));
    }
    {
        // Jitter (Monte-Carlo device spread) reaches the capture hardware:
        // stimulus is still shared, the Tx capture is not.
        auto c = base;
        c.tiadc.jitter_rms_s *= 1.5;
        EXPECT_EQ(digest(c, stage::stimulus), digest(base, stage::stimulus));
        EXPECT_NE(digest(c, stage::tx_capture),
                  digest(base, stage::tx_capture));
    }
}

TEST(PipelineSession, ConstructorContracts) {
    auto cfg = golden_config();
    cfg.fast_samples = 16;
    EXPECT_THROW(bist_session{cfg}, contract_violation);
    cfg = golden_config();
    cfg.slow_divider = 1;
    EXPECT_THROW(bist_session{cfg}, contract_violation);
    cfg = golden_config();
    cfg.probe_count = 4;
    EXPECT_THROW(bist_session{cfg}, contract_violation);
}

} // namespace
