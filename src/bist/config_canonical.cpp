#include "bist/config_canonical.hpp"

#include <charconv>
#include <cmath>

#include "core/hash.hpp"

namespace sdrbist::bist {

namespace {

/// Appends `key=value` lines in a fixed order.  All numeric renderings are
/// platform-independent: to_chars shortest form for doubles, decimal for
/// integers.
class canonical_writer {
public:
    void text(const std::string& key, const std::string& value) {
        body_ += key;
        body_ += '=';
        body_ += value;
        body_ += '\n';
    }
    void real(const std::string& key, double v) {
        if (!std::isfinite(v)) {
            // JSON-style rendering keeps the canonical text total even for
            // degenerate configs (a NaN limit still hashes stably).
            text(key, std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
            return;
        }
        char buf[64];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        text(key, std::string(buf, res.ptr));
    }
    void integer(const std::string& key, std::int64_t v) {
        text(key, std::to_string(v));
    }
    void unsigned_integer(const std::string& key, std::uint64_t v) {
        text(key, std::to_string(v));
    }
    void boolean(const std::string& key, bool v) { text(key, v ? "1" : "0"); }

    [[nodiscard]] const std::string& str() const { return body_; }

private:
    std::string body_;
};

void write_generator(canonical_writer& w, const std::string& prefix,
                     const waveform::generator_config& g) {
    w.integer(prefix + ".mod", static_cast<std::int64_t>(g.mod));
    w.real(prefix + ".symbol_rate", g.symbol_rate);
    w.real(prefix + ".rolloff", g.rolloff);
    w.unsigned_integer(prefix + ".oversample", g.oversample);
    w.unsigned_integer(prefix + ".span_symbols", g.span_symbols);
    w.unsigned_integer(prefix + ".symbol_count", g.symbol_count);
    w.integer(prefix + ".prbs", static_cast<std::int64_t>(g.data));
    w.unsigned_integer(prefix + ".prbs_seed", g.prbs_seed);
}

void write_mask(canonical_writer& w, const std::string& prefix,
                const waveform::spectral_mask& mask) {
    w.text(prefix + ".name", mask.name());
    w.real(prefix + ".ref_bw_hz", mask.reference_bandwidth());
    w.unsigned_integer(prefix + ".segments", mask.segments().size());
    for (std::size_t i = 0; i < mask.segments().size(); ++i) {
        const auto& s = mask.segments()[i];
        const std::string p = prefix + ".segment." + std::to_string(i);
        w.real(p + ".lo_hz", s.offset_lo_hz);
        w.real(p + ".hi_hz", s.offset_hi_hz);
        w.real(p + ".limit_dbc", s.limit_dbc);
    }
}

void write_tx(canonical_writer& w, const rf::tx_config& tx) {
    w.real("tx.carrier_hz", tx.carrier_hz);
    w.integer("tx.recon_filter_order", tx.recon_filter_order);
    w.real("tx.recon_filter_cutoff_hz", tx.recon_filter_cutoff_hz);
    w.real("tx.imbalance.gain_db", tx.imbalance.gain_db);
    w.real("tx.imbalance.phase_deg", tx.imbalance.phase_deg);
    w.real("tx.leakage.level_dbc", tx.leakage.level_dbc);
    w.real("tx.leakage.phase_deg", tx.leakage.phase_deg);
    w.real("tx.lo_phase_noise.linewidth_hz", tx.lo_phase_noise.linewidth_hz);
    w.integer("tx.pa", static_cast<std::int64_t>(tx.pa));
    w.real("tx.pa_gain_db", tx.pa_gain_db);
    w.real("tx.pa_backoff_db", tx.pa_backoff_db);
    w.real("tx.rapp_smoothness", tx.rapp_smoothness);
    w.real("tx.saleh_alpha_a", tx.saleh_alpha_a);
    w.real("tx.saleh_beta_a", tx.saleh_beta_a);
    w.real("tx.saleh_alpha_phi", tx.saleh_alpha_phi);
    w.real("tx.saleh_beta_phi", tx.saleh_beta_phi);
    w.integer("tx.band_filter_order", tx.band_filter_order);
    w.real("tx.band_filter_halfwidth_hz", tx.band_filter_halfwidth_hz);
    w.real("tx.noise.snr_db", tx.noise.snr_db);
    w.unsigned_integer("tx.seed", tx.seed);
}

void write_tiadc(canonical_writer& w, const adc::tiadc_config& t) {
    w.real("tiadc.channel_rate_hz", t.channel_rate_hz);
    w.integer("tiadc.quant.bits", t.quant.bits);
    w.real("tiadc.quant.full_scale", t.quant.full_scale);
    w.real("tiadc.quant.gain_error", t.quant.gain_error);
    w.real("tiadc.quant.offset_error", t.quant.offset_error);
    w.real("tiadc.jitter_rms_s", t.jitter_rms_s);
    w.real("tiadc.dcde.step_s", t.delay_element.step_s);
    w.integer("tiadc.dcde.code_min", t.delay_element.code_min);
    w.integer("tiadc.dcde.code_max", t.delay_element.code_max);
    w.real("tiadc.dcde.static_error_s", t.delay_element.static_error_s);
    w.real("tiadc.dcde.inl_rms_s", t.delay_element.inl_rms_s);
    w.unsigned_integer("tiadc.dcde.inl_seed", t.delay_element.inl_seed);
    w.real("tiadc.ch1_gain_error", t.ch1_gain_error);
    w.real("tiadc.ch1_offset_error", t.ch1_offset_error);
    w.unsigned_integer("tiadc.seed", t.seed);
}

} // namespace

std::string canonical_stage_text(const bist_config& config, stage s) {
    canonical_writer w;
    w.integer("stage_canon", stage_canonical_version);
    w.text("stage", to_string(s));
    switch (s) {
    case stage::stimulus:
        // Waveform generation + band planning.  The preset name and mask
        // are presentation/grading concerns — excluded on purpose, so
        // Monte-Carlo trials whose mask was relaxed to a perturbed jitter
        // floor still share this stage.
        write_generator(w, "preset.stimulus", config.preset.stimulus);
        w.real("preset.default_carrier_hz", config.preset.default_carrier_hz);
        w.boolean("use_calibration_stimulus",
                  config.use_calibration_stimulus);
        write_generator(w, "calibration_stimulus",
                        config.calibration_stimulus);
        w.real("tiadc.channel_rate_hz", config.tiadc.channel_rate_hz);
        w.unsigned_integer("slow_divider", config.slow_divider);
        break;
    case stage::tx_capture:
        // DUT transmission, band-select filtering, ranging and the
        // dual-rate estimation captures.
        write_tx(w, config.tx);
        write_tiadc(w, config.tiadc);
        w.real("dcde_target_delay_s", config.dcde_target_delay_s);
        w.unsigned_integer("fast_samples", config.fast_samples);
        w.real("capture_start_s", config.capture_start_s);
        w.integer("capture_filter_order", config.capture_filter_order);
        w.real("capture_filter_halfwidth_hz",
               config.capture_filter_halfwidth_hz);
        w.real("spectrum_filter_halfwidth_hz",
               config.spectrum_filter_halfwidth_hz);
        w.boolean("auto_range", config.auto_range);
        break;
    case stage::calibration:
        // Probe placement + the LMS search (its reconstruction options
        // are also the ones stage 4 reuses).
        w.unsigned_integer("probe_count", config.probe_count);
        w.unsigned_integer("probe_seed", config.probe_seed);
        w.real("d0_hint_s", config.d0_hint_s);
        w.real("lms.mu0", config.lms.mu0);
        w.unsigned_integer("lms.max_iterations", config.lms.max_iterations);
        w.real("lms.cost_tolerance", config.lms.cost_tolerance);
        w.real("lms.min_mu", config.lms.min_mu);
        w.real("lms.step_tolerance", config.lms.step_tolerance);
        w.real("lms.initial_probe_s", config.lms.initial_probe_s);
        w.unsigned_integer("lms.max_halvings", config.lms.max_halvings);
        w.unsigned_integer("lms.recon.taps", config.lms.recon.taps);
        w.real("lms.recon.kaiser_beta", config.lms.recon.kaiser_beta);
        break;
    case stage::reconstruction:
        // Spectrum capture + dense PNBS evaluation (welch_segment is a
        // grading knob; everything else it reads is upstream).
        w.real("spectrum.dense_rate_factor",
               config.spectrum.dense_rate_factor);
        w.real("spectrum.envelope_rate_min",
               config.spectrum.envelope_rate_min);
        w.unsigned_integer("spectrum.ddc_taps", config.spectrum.ddc_taps);
        w.real("spectrum.ddc_cutoff_hz", config.spectrum.ddc_cutoff_hz);
        w.real("spectrum.mix_frequency", config.spectrum.mix_frequency);
        break;
    case stage::grading:
        write_mask(w, "preset.mask", config.preset.mask);
        w.real("preset.acpr_offset_hz", config.preset.acpr_offset_hz);
        w.unsigned_integer("spectrum.welch_segment",
                           config.spectrum.welch_segment);
        w.real("evm_limit_percent", config.evm_limit_percent);
        w.real("min_output_rms", config.min_output_rms);
        w.real("acpr_limit_dbc", config.acpr_limit_dbc);
        w.real("acpr_offset_hz", config.acpr_offset_hz);
        break;
    }
    return w.str();
}

std::uint64_t stage_input_digest(const bist_config& config, stage s) {
    fnv1a64 h;
    h.update("sdrbist-stage-chain-v" +
             std::to_string(stage_canonical_version) + "\n");
    for (const stage t : stage_order) {
        h.update(canonical_stage_text(config, t));
        if (t == s)
            break;
    }
    return h.value();
}

} // namespace sdrbist::bist
