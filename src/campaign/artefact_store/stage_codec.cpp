#include "campaign/artefact_store/stage_codec.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

namespace sdrbist::campaign {

// ---- waveform ---------------------------------------------------------------

template <class Io> void describe(Io& io, waveform::baseband_waveform& w) {
    io("samples", w.samples);
    io("sample_rate", w.sample_rate);
    io("symbol_rate", w.symbol_rate);
    io("rolloff", w.rolloff);
    io("oversample", w.oversample);
    io("shaper_delay_samples", w.shaper_delay_samples);
    io("symbols", w.symbols);
    io("mod", bounded{w.mod, waveform::modulation::dqpsk_pi4});
}

template <class Io> void describe(Io& io, waveform::generator_config& g) {
    io("mod", bounded{g.mod, waveform::modulation::dqpsk_pi4});
    io("symbol_rate", g.symbol_rate);
    io("rolloff", g.rolloff);
    io("oversample", g.oversample);
    io("span_symbols", g.span_symbols);
    io("symbol_count", g.symbol_count);
    io("data", bounded{g.data, waveform::prbs_order::prbs31});
    io("prbs_seed",
       bounded{g.prbs_seed, std::numeric_limits<std::uint32_t>::max()});
}

// ---- band plan --------------------------------------------------------------

template <class Io> void describe(Io& io, sampling::band_spec& b) {
    io("f_lo", b.f_lo);
    io("f_hi", b.f_hi);
}

template <class Io> void describe(Io& io, calib::band_plan& p) {
    io("fast", p.fast);
    io("slow", p.slow);
    io("fast_offset_hz", p.fast_offset_hz);
    io("slow_offset_hz", p.slow_offset_hz);
}

// ---- passbands and captures -------------------------------------------------

/// A passband evaluator travels as its construction parameters and is
/// rebuilt through the public constructor on read.
template <class Io>
void describe(Io& io, std::shared_ptr<const rf::envelope_passband>& p) {
    const auto fields = [&io](auto&& envelope, auto&& rate, auto&& carrier) {
        io("envelope", envelope);
        io("envelope_rate", rate);
        io("carrier_hz", carrier);
    };
    if constexpr (Io::reads) {
        std::vector<std::complex<double>> envelope;
        double rate = 0.0;
        double carrier = 0.0;
        fields(envelope, rate, carrier);
        p = std::make_shared<const rf::envelope_passband>(std::move(envelope),
                                                          rate, carrier);
    } else {
        fields(p->envelope_samples(), p->envelope_rate(), p->carrier());
    }
}

template <class Io> void describe(Io& io, rf::tx_output& t) {
    io("envelope", t.envelope);
    io("envelope_rate", t.envelope_rate);
    io("carrier_hz", t.carrier_hz);
}

template <class Io> void describe(Io& io, adc::ranging_result& r) {
    io("input_scale", r.input_scale);
    io("observed_peak", r.observed_peak);
    io("clipped", r.clipped);
}

template <class Io> void describe(Io& io, adc::nonuniform_capture& c) {
    io("even", c.even);
    io("odd", c.odd);
    io("period_s", c.period_s);
    io("t_start", c.t_start);
    io("true_delay_s", c.true_delay_s);
}

template <class Io> void describe(Io& io, calib::dual_rate_capture& d) {
    io("fast", d.fast);
    io("slow", d.slow);
    io("band_fast", d.band_fast);
    io("band_slow", d.band_slow);
}

// ---- estimation / grading artefacts ----------------------------------------

template <class Io> void describe(Io& io, calib::lms_trace_point& p) {
    io("iteration", p.iteration);
    io("d_hat", p.d_hat);
    io("cost", p.cost);
    io("mu", p.mu);
}

template <class Io> void describe(Io& io, calib::skew_estimate& s) {
    io("d_hat", s.d_hat);
    io("final_cost", s.final_cost);
    io("iterations", s.iterations);
    io("converged", s.converged);
    io("cost_evaluations", s.cost_evaluations);
    io("trace", s.trace);
}

template <class Io> void describe(Io& io, waveform::mask_segment_report& s) {
    io("offset_lo_hz", s.segment.offset_lo_hz);
    io("offset_hi_hz", s.segment.offset_hi_hz);
    io("limit_dbc", s.segment.limit_dbc);
    io("measured_dbc", s.measured_dbc);
    io("margin_db", s.margin_db);
    io("pass", s.pass);
}

template <class Io> void describe(Io& io, waveform::mask_report& m) {
    io("pass", m.pass);
    io("worst_margin_db", m.worst_margin_db);
    io("reference_dbhz", m.reference_dbhz);
    io("segments", m.segments);
}

template <class Io> void describe(Io& io, waveform::evm_result& e) {
    io("evm_rms", e.evm_rms);
    io("evm_peak", e.evm_peak);
    io("gain_re", parts(e.gain)[0]);
    io("gain_im", parts(e.gain)[1]);
    io("timing_offset", e.timing_offset);
    io("received_symbols", e.received_symbols);
}

template <class Io> void describe(Io& io, waveform::acpr_result& a) {
    io("main_power", a.main_power);
    io("lower_dbc", a.lower_dbc);
    io("upper_dbc", a.upper_dbc);
}

template <class Io> void describe(Io& io, bist::reconstructed_envelope& e) {
    io("samples", e.samples);
    io("rate", e.rate);
    io("t0", e.t0);
}

// ---------------------------------------------------------------------------
// Stage outputs
// ---------------------------------------------------------------------------

template <class Io> void describe(Io& io, bist::stimulus_output& s) {
    io("stimulus", s.stimulus);
    io("calibration", s.calibration);
    io("calibration_config", s.calibration_config);
    io("occupied_bw_calibration_hz", s.occupied_bw_calibration_hz);
    io("occupied_bw_graded_hz", s.occupied_bw_graded_hz);
    io("plan", s.plan);
    io("carrier_hz", s.carrier_hz);
    io("carrier_nudge_hz", s.carrier_nudge_hz);
    io("plan_discrimination", s.plan_discrimination);
}

template <class Io> void describe(Io& io, bist::tx_capture_output& c) {
    io("tx_out", c.tx_out);
    io("calibration_tx_out", c.calibration_tx_out);
    io("capture_input", c.capture_input);
    io("spectrum_input", c.spectrum_input);
    io("ranging", c.ranging);
    io("capture", c.capture);
    io("programmed_delay_s", c.programmed_delay_s);
    io("dual_rate_conditions_ok", c.dual_rate_conditions_ok);
    io("max_search_delay_s", c.max_search_delay_s);
}

template <class Io> void describe(Io& io, bist::calibration_output& c) {
    io("probe_times", c.probe_times);
    io("skew", c.skew);
}

template <class Io> void describe(Io& io, bist::reconstruction_output& r) {
    io("spectrum_ranging", r.spectrum_ranging);
    io("spectrum_capture", r.spectrum_capture);
    io("envelope", r.envelope);
}

template <class Io> void describe(Io& io, bist::grading_output& g) {
    io("mask", g.mask);
    io("evm", g.evm);
    io("evm_pass", g.evm_pass);
    io("acpr", g.acpr);
    io("acpr_limit_dbc", g.acpr_limit_dbc);
    io("acpr_pass", g.acpr_pass);
    io("occupied_bw_hz", g.occupied_bw_hz);
    io("measured_output_rms", g.measured_output_rms);
    io("min_output_rms", g.min_output_rms);
    io("power_pass", g.power_pass);
}

// ---------------------------------------------------------------------------
// Scenario report
// ---------------------------------------------------------------------------

template <class Io> void describe(Io& io, bist::bist_report& r) {
    io("preset_name", r.preset_name);
    io("carrier_hz", r.carrier_hz);
    io("skew", r.skew);
    io("programmed_delay_s", r.programmed_delay_s);
    io("dual_rate_conditions_ok", r.dual_rate_conditions_ok);
    io("max_search_delay_s", r.max_search_delay_s);
    io("slow_band_offset_hz", r.slow_band_offset_hz);
    io("fast_band_offset_hz", r.fast_band_offset_hz);
    io("carrier_nudge_hz", r.carrier_nudge_hz);
    io("plan_discrimination", r.plan_discrimination);
    io("mask", r.mask);
    io("evm", r.evm);
    io("evm_limit_percent", r.evm_limit_percent);
    io("evm_pass", r.evm_pass);
    io("measured_output_rms", r.measured_output_rms);
    io("min_output_rms", r.min_output_rms);
    io("power_pass", r.power_pass);
    io("acpr_main_power", r.acpr.main_power);
    io("acpr_lower_dbc", r.acpr.lower_dbc);
    io("acpr_upper_dbc", r.acpr.upper_dbc);
    io("acpr_limit_dbc", r.acpr_limit_dbc);
    io("acpr_pass", r.acpr_pass);
    io("occupied_bw_hz", r.occupied_bw_hz);
}

template void describe(record_writer&, bist::bist_report&);
template void describe(record_reader&, bist::bist_report&);

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::string stimulus_json(const bist::stimulus_output& s) {
    return record_writer::encode(s);
}
bist::stimulus_output stimulus_from_json(const json_value& v) {
    return record_reader::decode<bist::stimulus_output>(v);
}

std::string tx_capture_json(const bist::tx_capture_output& c) {
    return record_writer::encode(c);
}
bist::tx_capture_output tx_capture_from_json(const json_value& v) {
    return record_reader::decode<bist::tx_capture_output>(v);
}

std::string calibration_json(const bist::calibration_output& c) {
    return record_writer::encode(c);
}
bist::calibration_output calibration_from_json(const json_value& v) {
    return record_reader::decode<bist::calibration_output>(v);
}

std::string reconstruction_json(const bist::reconstruction_output& r) {
    return record_writer::encode(r);
}
bist::reconstruction_output reconstruction_from_json(const json_value& v) {
    return record_reader::decode<bist::reconstruction_output>(v);
}

std::string grading_json(const bist::grading_output& g) {
    return record_writer::encode(g);
}
bist::grading_output grading_from_json(const json_value& v) {
    return record_reader::decode<bist::grading_output>(v);
}

std::string report_json(const bist::bist_report& r) {
    return record_writer::encode(r);
}

} // namespace sdrbist::campaign
