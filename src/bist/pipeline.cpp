#include "bist/pipeline.hpp"

#include <cmath>
#include <utility>

#include "bist/config_canonical.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/stats.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "dsp/biquad.hpp"

namespace sdrbist::bist {

std::string to_string(stage s) {
    switch (s) {
    case stage::stimulus: return "stimulus";
    case stage::tx_capture: return "tx-capture";
    case stage::calibration: return "calibration";
    case stage::reconstruction: return "reconstruction";
    case stage::grading: return "grading";
    }
    return "unknown";
}

namespace {

double occupied_bandwidth(const waveform::generator_config& g) {
    return g.symbol_rate * (1.0 + g.rolloff);
}

/// Rebuild the capture hardware exactly as the monolithic engine had it at
/// this point of the flow: same config, same programmed DCDE code.  The
/// BP-TIADC is deterministic given (config, delay code, input scale,
/// capture index), so a stage boundary can reconstruct it bit-identically.
adc::bp_tiadc make_programmed_sampler(const bist_config& config) {
    adc::bp_tiadc sampler(config.tiadc);
    sampler.program_delay(config.dcde_target_delay_s);
    return sampler;
}

} // namespace

// ---------------------------------------------------------------------------
// Stage runners
// ---------------------------------------------------------------------------

stimulus_output run_stimulus(const bist_config& config) {
    const telemetry::scoped_span span(telemetry::category::stage_stimulus,
                                      "stimulus");
    fault_injection::fire(fault_injection::site::stage_stimulus);
    stimulus_output out;

    const double nominal_carrier = config.preset.default_carrier_hz;
    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    // Stimuli (repeatable: PRBS-seeded).  The graded waveform is the
    // preset's; skew calibration uses a wideband waveform whose occupied
    // band is scaled to the slow capture band.
    out.stimulus = waveform::generate_baseband(config.preset.stimulus);
    waveform::generator_config cal_cfg = config.use_calibration_stimulus
                                             ? config.calibration_stimulus
                                             : config.preset.stimulus;
    if (config.use_calibration_stimulus &&
        (occupied_bandwidth(cal_cfg) > 0.75 * b1))
        cal_cfg.symbol_rate = 0.22 * b1 / (1.0 + cal_cfg.rolloff) * 1.5;
    out.calibration = waveform::generate_baseband(cal_cfg);
    out.calibration_config = cal_cfg;

    // Band plan (eq. (9) + numerical identifiability).  When every plan
    // at the nominal carrier is blind (e.g. the carrier is a multiple of
    // B1 so the skew-error image self-folds for both rates), the SDR's own
    // agility is used: the BIST transmits its test waveforms on a slightly
    // nudged carrier.
    out.occupied_bw_calibration_hz = occupied_bandwidth(cal_cfg);
    out.occupied_bw_graded_hz = occupied_bandwidth(config.preset.stimulus);
    const double occ_max =
        std::max(out.occupied_bw_calibration_hz, out.occupied_bw_graded_hz);
    constexpr double disc_threshold = 1e-2;
    {
        double best_disc = -1.0;
        calib::band_plan best_plan{};
        double best_carrier = nominal_carrier;
        for (const double frac :
             {0.0, 0.25, -0.25, 0.125, -0.125, 0.375, -0.375}) {
            const double cand_carrier = nominal_carrier + frac * b1;
            double disc = 0.0;
            const auto cand_plan = calib::choose_band_plan(
                cand_carrier, b, b1, out.occupied_bw_calibration_hz, occ_max,
                disc_threshold, &disc);
            if (disc > best_disc) {
                best_disc = disc;
                best_plan = cand_plan;
                best_carrier = cand_carrier;
            }
            if (disc >= disc_threshold)
                break;
        }
        out.plan = best_plan;
        out.carrier_hz = best_carrier;
        out.plan_discrimination = best_disc;
    }
    out.carrier_nudge_hz = out.carrier_hz - nominal_carrier;
    return out;
}

tx_capture_output run_tx_capture(const bist_config& config,
                                 const stimulus_output& stim) {
    const telemetry::scoped_span span(telemetry::category::stage_tx_capture,
                                      "tx-capture");
    fault_injection::fire(fault_injection::site::stage_tx_capture);
    tx_capture_output out;

    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    // Transmitter (device under test) runs both waveforms on the BIST
    // carrier.
    rf::tx_config txc = config.tx;
    txc.carrier_hz = stim.carrier_hz;
    const rf::homodyne_tx tx(txc);
    out.tx_out = tx.transmit(stim.stimulus);
    out.calibration_tx_out = tx.transmit(stim.calibration);

    auto filtered_input = [&](const rf::tx_output& source, double halfwidth) {
        // Low-rate waveforms may be represented at an envelope rate below
        // the capture bandwidth; the band filter then has nothing to remove
        // and its cutoff is clamped inside the envelope's Nyquist range.
        halfwidth = std::min(halfwidth, 0.4 * source.envelope_rate);
        auto bpf = dsp::butterworth_lowpass(config.capture_filter_order,
                                            halfwidth, source.envelope_rate);
        auto filtered = bpf.filter(std::span<const std::complex<double>>(
            source.envelope.data(), source.envelope.size()));
        return std::make_shared<rf::envelope_passband>(
            std::move(filtered), source.envelope_rate, source.carrier_hz);
    };
    {
        // The narrow filter (centred on the carrier) must keep everything
        // inside whichever slow-band edge sits closest to the carrier.
        const double slow_cover =
            b1 / 2.0 - std::abs(stim.plan.slow_offset_hz);
        const double narrow = config.capture_filter_halfwidth_hz > 0.0
                                  ? config.capture_filter_halfwidth_hz
                                  : std::min(0.42 * b1, 0.95 * slow_cover);
        const double fast_cover =
            b / 2.0 - std::abs(stim.plan.fast_offset_hz);
        const double wide = config.spectrum_filter_halfwidth_hz > 0.0
                                ? config.spectrum_filter_halfwidth_hz
                                : 0.9 * fast_cover;
        out.capture_input = filtered_input(out.calibration_tx_out, narrow);
        out.spectrum_input = filtered_input(out.tx_out, wide);
    }

    adc::bp_tiadc sampler = make_programmed_sampler(config);
    out.programmed_delay_s = config.dcde_target_delay_s;

    // Estimation-phase dual-rate capture of the calibration waveform.
    // Start after the pulse shaper's leading transient so the records see
    // the waveform at its steady level.
    const double cal_ramp =
        static_cast<double>(stim.calibration.shaper_delay_samples) /
        stim.calibration.sample_rate;
    const double cal_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : out.capture_input->begin_time() + cal_ramp + 0.1 * us;
    const std::size_t cal_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(std::ceil(
            64.0 * b / stim.calibration_config.symbol_rate)));
    SDRBIST_EXPECTS(cal_t_start + static_cast<double>(cal_samples) / b <
                    out.capture_input->end_time());

    // Both records are sampled first and ranged together: one attenuator
    // setting puts the larger of their peaks at the ranging headroom.
    auto fast = sampler.sample(*out.capture_input, cal_t_start, cal_samples,
                               1, /*capture*/ 0);
    auto slow = sampler.sample(*out.capture_input, cal_t_start,
                               cal_samples / config.slow_divider,
                               config.slow_divider, /*capture*/ 1);
    if (config.auto_range)
        out.ranging = sampler.range({&fast, &slow});
    out.capture.fast = sampler.quantize(std::move(fast));
    out.capture.slow = sampler.quantize(std::move(slow));
    out.capture.band_fast = stim.plan.fast;
    out.capture.band_slow = stim.plan.slow;

    // Identifiability conditions (paper eq. (9)).
    out.dual_rate_conditions_ok = calib::dual_rate_conditions_ok(out.capture);
    out.max_search_delay_s = calib::max_search_delay(out.capture);
    return out;
}

calibration_output run_calibration(const bist_config& config,
                                   const tx_capture_output& cap) {
    const telemetry::scoped_span span(telemetry::category::stage_calibration,
                                      "calibration");
    fault_injection::fire(fault_injection::site::stage_calibration);
    SDRBIST_EXPECTS(cap.dual_rate_conditions_ok);
    calibration_output out;

    // LMS time-skew identification (paper Algorithm 1).
    const auto [probe_lo, probe_hi] =
        calib::valid_probe_interval(cap.capture, config.lms.recon);
    rng probe_gen(config.probe_seed);
    out.probe_times = calib::make_probe_times(probe_gen, config.probe_count,
                                              probe_lo, probe_hi);
    const double d0 = config.d0_hint_s > 0.0
                          ? config.d0_hint_s
                          : 0.5 * cap.max_search_delay_s;
    const calib::lms_skew_estimator estimator(config.lms);
    out.skew = estimator.estimate(cap.capture, d0, out.probe_times);
    return out;
}

reconstruction_output run_reconstruction(const bist_config& config,
                                         const stimulus_output& stim,
                                         const tx_capture_output& cap,
                                         const calibration_output& cal) {
    const telemetry::scoped_span span(
        telemetry::category::stage_reconstruction, "reconstruction");
    fault_injection::fire(fault_injection::site::stage_reconstruction);
    reconstruction_output out;

    const double b = config.tiadc.channel_rate_hz;

    // Spectrum-grading capture of the preset waveform (wide filter, fast
    // rate), then reconstruction with the identified delay.  The record is
    // long enough for ~80 symbols of the graded waveform.
    const double spec_ramp =
        static_cast<double>(stim.stimulus.shaper_delay_samples) /
        stim.stimulus.sample_rate;
    const double spec_t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : cap.spectrum_input->begin_time() + spec_ramp + 0.1 * us;
    const std::size_t spec_samples = std::max(
        config.fast_samples,
        static_cast<std::size_t>(
            std::ceil(80.0 * b / config.preset.stimulus.symbol_rate)));
    SDRBIST_EXPECTS(spec_t_start + static_cast<double>(spec_samples) / b <
                    cap.spectrum_input->end_time());

    adc::bp_tiadc sampler = make_programmed_sampler(config);
    auto spectrum = sampler.sample(*cap.spectrum_input, spec_t_start,
                                   spec_samples, 1, /*capture*/ 2);
    if (config.auto_range)
        out.spectrum_ranging = sampler.range({&spectrum});
    out.spectrum_capture = sampler.quantize(std::move(spectrum));

    const sampling::pnbs_reconstructor recon(
        out.spectrum_capture.even, out.spectrum_capture.odd,
        out.spectrum_capture.period_s, out.spectrum_capture.t_start,
        cap.capture.band_fast, cal.skew.d_hat, config.lms.recon);
    spectrum_options spec_opt = config.spectrum;
    if (spec_opt.mix_frequency <= 0.0)
        spec_opt.mix_frequency = stim.carrier_hz;
    if (spec_opt.ddc_cutoff_hz <= 0.0) {
        // Cover the mask extent (4 × occupied) but no more: narrow graded
        // signals then get a lower envelope rate and finer PSD resolution.
        const double mix_shift = std::abs(spec_opt.mix_frequency -
                                          cap.capture.band_fast.centre());
        spec_opt.ddc_cutoff_hz =
            std::min(0.55 * b + mix_shift,
                     4.6 * stim.occupied_bw_graded_hz + mix_shift);
    }
    if (spec_opt.envelope_rate_min <= 0.0)
        spec_opt.envelope_rate_min = 2.4 * spec_opt.ddc_cutoff_hz;
    out.envelope = reconstruct_envelope(recon, spec_opt);
    return out;
}

grading_output run_grading(const bist_config& config,
                           const stimulus_output& stim,
                           const reconstruction_output& recon) {
    const telemetry::scoped_span span(telemetry::category::stage_grading,
                                      "grading");
    fault_injection::fire(fault_injection::site::stage_grading);
    grading_output out;

    const double occ_graded = stim.occupied_bw_graded_hz;
    const std::size_t welch_segment =
        config.spectrum.welch_segment > 0
            ? config.spectrum.welch_segment
            : auto_welch_segment(recon.envelope.rate, occ_graded,
                                 recon.envelope.samples.size());
    const auto psd = envelope_psd(recon.envelope, welch_segment);
    out.mask = config.preset.mask.check(psd);

    // Scalar spectral metrics: ACPR and occupied bandwidth.  Offset
    // precedence: explicit config > the preset's standard-mandated offset
    // > auto (1.5 × occupied bandwidth).
    {
        const double offset =
            config.acpr_offset_hz > 0.0 ? config.acpr_offset_hz
            : config.preset.acpr_offset_hz > 0.0
                ? config.preset.acpr_offset_hz
                : 1.5 * occ_graded;
        out.acpr = waveform::measure_acpr(psd, occ_graded, offset);
        out.acpr_limit_dbc = config.acpr_limit_dbc;
        out.acpr_pass = config.acpr_limit_dbc >= 0.0 ||
                        out.acpr.worst_dbc() <= config.acpr_limit_dbc;
        out.occupied_bw_hz = waveform::occupied_bandwidth(psd, 0.99);
    }

    waveform::evm_options evm_opt;
    evm_opt.envelope_t0 = recon.envelope.t0;
    out.evm = waveform::measure_evm(
        std::span<const std::complex<double>>(
            recon.envelope.samples.data(), recon.envelope.samples.size()),
        recon.envelope.rate, stim.stimulus, evm_opt);
    out.evm_pass = out.evm.evm_percent() <= config.evm_limit_percent;

    // Output-power check (PA health): refer the captured RMS back through
    // the ranging attenuator to the capture-path input level.
    {
        const double scale =
            config.auto_range ? recon.spectrum_ranging.input_scale : 1.0;
        out.measured_output_rms = rms(recon.spectrum_capture.even) / scale;
        out.min_output_rms = config.min_output_rms;
        out.power_pass = config.min_output_rms <= 0.0 ||
                         out.measured_output_rms >= config.min_output_rms;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

bist_session::bist_session(bist_config config) : config_(std::move(config)) {
    SDRBIST_EXPECTS(config_.fast_samples >= 64);
    SDRBIST_EXPECTS(config_.slow_divider >= 2);
    SDRBIST_EXPECTS(config_.probe_count >= 16);
}

void bist_session::drop_from(stage s) {
    switch (s) {
    case stage::stimulus: stimulus_.reset(); [[fallthrough]];
    case stage::tx_capture: tx_capture_.reset(); [[fallthrough]];
    case stage::calibration: calibration_.reset(); [[fallthrough]];
    case stage::reconstruction: reconstruction_.reset(); [[fallthrough]];
    case stage::grading: grading_.reset();
    }
}

bool bist_session::completed(stage s) const {
    switch (s) {
    case stage::stimulus: return stimulus_ != nullptr;
    case stage::tx_capture: return tx_capture_ != nullptr;
    case stage::calibration: return calibration_ != nullptr;
    case stage::reconstruction: return reconstruction_ != nullptr;
    case stage::grading: return grading_ != nullptr;
    }
    return false;
}

bool bist_session::run_until(stage target, stage_snapshot_store* store) {
    bool lookup = store != nullptr;
    for (const stage s : stage_order) {
        if (stage_index(s) > stage_index(target))
            break;
        if (completed(s))
            continue;
        if (store == nullptr) {
            compute(s);
            continue;
        }
        // One digest per stage keys both the lookup and the publication.
        const std::uint64_t digest = input_digest(s);
        if (lookup && load(*store, s, digest))
            continue;
        lookup = false; // adoption needs every upstream stage present
        compute(s);
        publish(*store, s, digest);
    }
    return true;
}

bool bist_session::load(stage_snapshot_store& store, stage s,
                        std::uint64_t digest) {
    switch (s) {
    case stage::stimulus: stimulus_ = store.load_stimulus(digest); break;
    case stage::tx_capture:
        tx_capture_ = store.load_tx_capture(digest);
        break;
    case stage::calibration:
        calibration_ = store.load_calibration(digest);
        break;
    case stage::reconstruction:
        reconstruction_ = store.load_reconstruction(digest);
        break;
    case stage::grading: grading_ = store.load_grading(digest); break;
    }
    return completed(s);
}

void bist_session::compute(stage s) {
    switch (s) {
    case stage::stimulus:
        stimulus_ =
            std::make_shared<const stimulus_output>(run_stimulus(config_));
        break;
    case stage::tx_capture:
        tx_capture_ = std::make_shared<const tx_capture_output>(
            run_tx_capture(config_, *stimulus_));
        break;
    case stage::calibration:
        calibration_ = std::make_shared<const calibration_output>(
            run_calibration(config_, *tx_capture_));
        break;
    case stage::reconstruction:
        reconstruction_ = std::make_shared<const reconstruction_output>(
            run_reconstruction(config_, *stimulus_, *tx_capture_,
                               *calibration_));
        break;
    case stage::grading:
        grading_ = std::make_shared<const grading_output>(
            run_grading(config_, *stimulus_, *reconstruction_));
        break;
    }
}

const stimulus_output& bist_session::stimulus() const {
    SDRBIST_EXPECTS(stimulus_ != nullptr);
    return *stimulus_;
}

const tx_capture_output& bist_session::tx_capture() const {
    SDRBIST_EXPECTS(tx_capture_ != nullptr);
    return *tx_capture_;
}

const calibration_output& bist_session::calibration() const {
    SDRBIST_EXPECTS(calibration_ != nullptr);
    return *calibration_;
}

const reconstruction_output& bist_session::reconstruction() const {
    SDRBIST_EXPECTS(reconstruction_ != nullptr);
    return *reconstruction_;
}

const grading_output& bist_session::grading() const {
    SDRBIST_EXPECTS(grading_ != nullptr);
    return *grading_;
}

std::uint64_t bist_session::input_digest(stage s) const {
    return stage_input_digest(config_, s);
}

void bist_session::adopt_from(const bist_session& donor, stage through) {
    SDRBIST_EXPECTS(donor.completed(through));
    stimulus_ = donor.stimulus_;
    tx_capture_ = donor.tx_capture_;
    calibration_ = donor.calibration_;
    reconstruction_ = donor.reconstruction_;
    grading_ = donor.grading_;
    if (through != stage::grading)
        drop_from(static_cast<stage>(stage_index(through) + 1));
}

void bist_session::publish_to_store(stage_snapshot_store& store,
                                    stage s) const {
    publish(store, s, input_digest(s));
}

void bist_session::publish(stage_snapshot_store& store, stage s,
                           std::uint64_t digest) const {
    SDRBIST_EXPECTS(completed(s));
    switch (s) {
    case stage::stimulus: store.store_stimulus(digest, *stimulus_); break;
    case stage::tx_capture:
        store.store_tx_capture(digest, *tx_capture_);
        break;
    case stage::calibration:
        store.store_calibration(digest, *calibration_);
        break;
    case stage::reconstruction:
        store.store_reconstruction(digest, *reconstruction_);
        break;
    case stage::grading: store.store_grading(digest, *grading_); break;
    }
}

bist_report bist_session::report() const {
    bist_report report;
    report.preset_name = config_.preset.name;
    report.evm_limit_percent = config_.evm_limit_percent;

    if (stimulus_) {
        report.plan_discrimination = stimulus_->plan_discrimination;
        report.carrier_hz = stimulus_->carrier_hz;
        report.carrier_nudge_hz = stimulus_->carrier_nudge_hz;
        report.slow_band_offset_hz = stimulus_->plan.slow_offset_hz;
        report.fast_band_offset_hz = stimulus_->plan.fast_offset_hz;
    }
    if (tx_capture_) {
        report.programmed_delay_s = tx_capture_->programmed_delay_s;
        report.dual_rate_conditions_ok = tx_capture_->dual_rate_conditions_ok;
        report.max_search_delay_s = tx_capture_->max_search_delay_s;
    }
    if (calibration_)
        report.skew = calibration_->skew;
    if (grading_) {
        report.mask = grading_->mask;
        report.acpr = grading_->acpr;
        report.acpr_limit_dbc = grading_->acpr_limit_dbc;
        report.acpr_pass = grading_->acpr_pass;
        report.occupied_bw_hz = grading_->occupied_bw_hz;
        report.evm = grading_->evm;
        report.evm_pass = grading_->evm_pass;
        report.measured_output_rms = grading_->measured_output_rms;
        report.min_output_rms = grading_->min_output_rms;
        report.power_pass = grading_->power_pass;
    }
    return report;
}

} // namespace sdrbist::bist
