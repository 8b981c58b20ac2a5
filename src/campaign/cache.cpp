#include "campaign/cache.hpp"

#include <limits>

#include "bist/config_canonical.hpp"
#include "core/contracts.hpp"
#include "core/hash.hpp"

namespace sdrbist::campaign {

// ---------------------------------------------------------------------------
// Report serialisation
// ---------------------------------------------------------------------------

namespace {

/// json_number(NaN/inf) emits null; read it back as quiet NaN.
double num_or_nan(const json_value& v) {
    return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                       : v.as_number();
}

std::string complex_vector_json(
    const std::vector<std::complex<double>>& values) {
    std::string out = "[";
    for (const auto& z : values) {
        if (out.size() > 1)
            out += ',';
        out += json_number(z.real());
        out += ',';
        out += json_number(z.imag());
    }
    out += ']';
    return out;
}

std::vector<std::complex<double>>
complex_vector_from_json(const json_value& v) {
    const auto& arr = v.as_array();
    SDRBIST_EXPECTS(arr.size() % 2 == 0);
    std::vector<std::complex<double>> out;
    out.reserve(arr.size() / 2);
    for (std::size_t i = 0; i < arr.size(); i += 2)
        out.emplace_back(num_or_nan(arr[i]), num_or_nan(arr[i + 1]));
    return out;
}

std::string skew_json(const calib::skew_estimate& s) {
    json_object_writer o;
    o.number_field("d_hat", s.d_hat);
    o.number_field("final_cost", s.final_cost);
    o.size_field("iterations", s.iterations);
    o.bool_field("converged", s.converged);
    o.size_field("cost_evaluations", s.cost_evaluations);
    std::string trace = "[";
    for (const auto& p : s.trace) {
        if (trace.size() > 1)
            trace += ',';
        json_object_writer t;
        t.size_field("iteration", p.iteration);
        t.number_field("d_hat", p.d_hat);
        t.number_field("cost", p.cost);
        t.number_field("mu", p.mu);
        trace += t.str();
    }
    trace += ']';
    o.field("trace", trace);
    return o.str();
}

calib::skew_estimate skew_from_json(const json_value& v) {
    calib::skew_estimate s;
    s.d_hat = num_or_nan(v.at("d_hat"));
    s.final_cost = num_or_nan(v.at("final_cost"));
    s.iterations = static_cast<std::size_t>(v.at("iterations").as_number());
    s.converged = v.at("converged").as_bool();
    s.cost_evaluations =
        static_cast<std::size_t>(v.at("cost_evaluations").as_number());
    for (const auto& tp : v.at("trace").as_array()) {
        calib::lms_trace_point p;
        p.iteration = static_cast<std::size_t>(tp.at("iteration").as_number());
        p.d_hat = num_or_nan(tp.at("d_hat"));
        p.cost = num_or_nan(tp.at("cost"));
        p.mu = num_or_nan(tp.at("mu"));
        s.trace.push_back(p);
    }
    return s;
}

std::string mask_json(const waveform::mask_report& m) {
    json_object_writer o;
    o.bool_field("pass", m.pass);
    o.number_field("worst_margin_db", m.worst_margin_db);
    o.number_field("reference_dbhz", m.reference_dbhz);
    std::string segments = "[";
    for (const auto& s : m.segments) {
        if (segments.size() > 1)
            segments += ',';
        json_object_writer seg;
        seg.number_field("offset_lo_hz", s.segment.offset_lo_hz);
        seg.number_field("offset_hi_hz", s.segment.offset_hi_hz);
        seg.number_field("limit_dbc", s.segment.limit_dbc);
        seg.number_field("measured_dbc", s.measured_dbc);
        seg.number_field("margin_db", s.margin_db);
        seg.bool_field("pass", s.pass);
        segments += seg.str();
    }
    segments += ']';
    o.field("segments", segments);
    return o.str();
}

waveform::mask_report mask_from_json(const json_value& v) {
    waveform::mask_report m;
    m.pass = v.at("pass").as_bool();
    m.worst_margin_db = num_or_nan(v.at("worst_margin_db"));
    m.reference_dbhz = num_or_nan(v.at("reference_dbhz"));
    for (const auto& sv : v.at("segments").as_array()) {
        waveform::mask_segment_report s;
        s.segment.offset_lo_hz = num_or_nan(sv.at("offset_lo_hz"));
        s.segment.offset_hi_hz = num_or_nan(sv.at("offset_hi_hz"));
        s.segment.limit_dbc = num_or_nan(sv.at("limit_dbc"));
        s.measured_dbc = num_or_nan(sv.at("measured_dbc"));
        s.margin_db = num_or_nan(sv.at("margin_db"));
        s.pass = sv.at("pass").as_bool();
        m.segments.push_back(std::move(s));
    }
    return m;
}

std::string evm_json(const waveform::evm_result& e) {
    json_object_writer o;
    o.number_field("evm_rms", e.evm_rms);
    o.number_field("evm_peak", e.evm_peak);
    o.number_field("gain_re", e.gain.real());
    o.number_field("gain_im", e.gain.imag());
    o.number_field("timing_offset", e.timing_offset);
    o.field("received_symbols", complex_vector_json(e.received_symbols));
    return o.str();
}

waveform::evm_result evm_from_json(const json_value& v) {
    waveform::evm_result e;
    e.evm_rms = num_or_nan(v.at("evm_rms"));
    e.evm_peak = num_or_nan(v.at("evm_peak"));
    e.gain = {num_or_nan(v.at("gain_re")), num_or_nan(v.at("gain_im"))};
    e.timing_offset = num_or_nan(v.at("timing_offset"));
    e.received_symbols = complex_vector_from_json(v.at("received_symbols"));
    return e;
}

} // namespace

std::string report_json(const bist::bist_report& r) {
    json_object_writer o;
    o.string_field("preset_name", r.preset_name);
    o.number_field("carrier_hz", r.carrier_hz);
    o.field("skew", skew_json(r.skew));
    o.number_field("programmed_delay_s", r.programmed_delay_s);
    o.bool_field("dual_rate_conditions_ok", r.dual_rate_conditions_ok);
    o.number_field("max_search_delay_s", r.max_search_delay_s);
    o.number_field("slow_band_offset_hz", r.slow_band_offset_hz);
    o.number_field("fast_band_offset_hz", r.fast_band_offset_hz);
    o.number_field("carrier_nudge_hz", r.carrier_nudge_hz);
    o.number_field("plan_discrimination", r.plan_discrimination);
    o.field("mask", mask_json(r.mask));
    o.field("evm", evm_json(r.evm));
    o.number_field("evm_limit_percent", r.evm_limit_percent);
    o.bool_field("evm_pass", r.evm_pass);
    o.number_field("measured_output_rms", r.measured_output_rms);
    o.number_field("min_output_rms", r.min_output_rms);
    o.bool_field("power_pass", r.power_pass);
    o.number_field("acpr_main_power", r.acpr.main_power);
    o.number_field("acpr_lower_dbc", r.acpr.lower_dbc);
    o.number_field("acpr_upper_dbc", r.acpr.upper_dbc);
    o.number_field("acpr_limit_dbc", r.acpr_limit_dbc);
    o.bool_field("acpr_pass", r.acpr_pass);
    o.number_field("occupied_bw_hz", r.occupied_bw_hz);
    return o.str();
}

bist::bist_report report_from_json(const json_value& v) {
    bist::bist_report r;
    r.preset_name = v.at("preset_name").as_string();
    r.carrier_hz = num_or_nan(v.at("carrier_hz"));
    r.skew = skew_from_json(v.at("skew"));
    r.programmed_delay_s = num_or_nan(v.at("programmed_delay_s"));
    r.dual_rate_conditions_ok = v.at("dual_rate_conditions_ok").as_bool();
    r.max_search_delay_s = num_or_nan(v.at("max_search_delay_s"));
    r.slow_band_offset_hz = num_or_nan(v.at("slow_band_offset_hz"));
    r.fast_band_offset_hz = num_or_nan(v.at("fast_band_offset_hz"));
    r.carrier_nudge_hz = num_or_nan(v.at("carrier_nudge_hz"));
    r.plan_discrimination = num_or_nan(v.at("plan_discrimination"));
    r.mask = mask_from_json(v.at("mask"));
    r.evm = evm_from_json(v.at("evm"));
    r.evm_limit_percent = num_or_nan(v.at("evm_limit_percent"));
    r.evm_pass = v.at("evm_pass").as_bool();
    r.measured_output_rms = num_or_nan(v.at("measured_output_rms"));
    r.min_output_rms = num_or_nan(v.at("min_output_rms"));
    r.power_pass = v.at("power_pass").as_bool();
    r.acpr.main_power = num_or_nan(v.at("acpr_main_power"));
    r.acpr.lower_dbc = num_or_nan(v.at("acpr_lower_dbc"));
    r.acpr.upper_dbc = num_or_nan(v.at("acpr_upper_dbc"));
    r.acpr_limit_dbc = num_or_nan(v.at("acpr_limit_dbc"));
    r.acpr_pass = v.at("acpr_pass").as_bool();
    r.occupied_bw_hz = num_or_nan(v.at("occupied_bw_hz"));
    return r;
}

// ---------------------------------------------------------------------------
// scenario_cache
// ---------------------------------------------------------------------------

scenario_cache::scenario_cache(std::string dir) : entries_(std::move(dir)) {}

std::string scenario_cache::key(const scenario& sc,
                                const bist::bist_config& materialised) {
    fnv1a64 h;
    // The salt of the retired v1 file format, kept verbatim: keys (and
    // journals that carry them) stay valid across the entry-format move.
    h.update("sdrbist-scenario-cache-v1\n");
    h.update("seed-derivation-v" + std::to_string(seed_derivation_version) +
             "\n");
    // Grid coordinates by *name*, never by index: a subset or extended
    // grid that keeps a scenario's coordinates keeps its key.
    h.update("preset=" + sc.preset_name + "\n");
    h.update("fault=" + bist::to_string(sc.fault) + "\n");
    h.update("trial=" + std::to_string(sc.trial) + "\n");
    h.update("scenario_seed=" + std::to_string(sc.seed) + "\n");
    h.update(bist::canonical_config_text(materialised));
    return h.hex();
}

std::optional<scenario_result>
scenario_cache::load(const std::string& key) const {
    std::optional<scenario_result> out;
    entries_.load(key, scenario_record_kind, [&](const std::string& raw) {
        const json_value doc = parse_json(raw);
        scenario_result r;
        r.engine_error = doc.at("engine_error").as_bool();
        r.error = doc.at("error").as_string();
        r.elapsed_s = num_or_nan(doc.at("elapsed_s"));
        r.report = report_from_json(doc.at("report"));
        out = std::move(r);
    });
    return out;
}

void scenario_cache::store(const std::string& key,
                           const scenario_result& r) const {
    json_object_writer doc;
    // Human-debuggable provenance (load() ignores these: the running grid
    // owns its scenario coordinates).
    doc.string_field("preset", r.sc.preset_name);
    doc.string_field("fault", bist::to_string(r.sc.fault));
    doc.size_field("trial", r.sc.trial);
    doc.string_field("seed", std::to_string(r.sc.seed));
    doc.bool_field("engine_error", r.engine_error);
    doc.string_field("error", r.error);
    doc.number_field("elapsed_s", r.elapsed_s);
    doc.field("report", report_json(r.report));
    entries_.store(key, scenario_record_kind, doc.str());
}

} // namespace sdrbist::campaign
