#include "campaign/export.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include "core/contracts.hpp"

namespace sdrbist::campaign {

// ---------------------------------------------------------------------------
// Writer helpers
// ---------------------------------------------------------------------------

namespace {


std::string format_size(std::size_t v) { return std::to_string(v); }


std::string csv_cell(const std::string& s) {
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

std::string scenario_json(const scenario_result& r, const export_options& opt) {
    json_object_writer o;
    o.size_field("index", r.sc.index);
    o.string_field("preset", r.sc.preset_name);
    o.string_field("fault", bist::to_string(r.sc.fault));
    o.size_field("trial", r.sc.trial);
    // Seeds are full 64-bit values; JSON numbers only carry 53 bits, so
    // export as a decimal string.
    o.string_field("seed", std::to_string(r.sc.seed));
    o.bool_field("pass", !r.flagged());
    o.bool_field("engine_error", r.engine_error);
    if (r.engine_error)
        o.string_field("error", r.error);
    o.number_field("carrier_hz", r.report.carrier_hz);
    o.number_field("skew_estimate_s", r.report.skew.d_hat);
    o.bool_field("skew_converged", r.report.skew.converged);
    o.bool_field("dual_rate_conditions_ok", r.report.dual_rate_conditions_ok);
    o.bool_field("mask_pass", r.report.mask.pass);
    o.number_field("mask_worst_margin_db", r.report.mask.worst_margin_db);
    o.bool_field("evm_pass", r.report.evm_pass);
    o.number_field("evm_percent", r.report.evm.evm_percent());
    o.bool_field("acpr_pass", r.report.acpr_pass);
    o.number_field("acpr_worst_dbc", r.report.acpr.worst_dbc());
    o.bool_field("power_pass", r.report.power_pass);
    o.number_field("measured_output_rms", r.report.measured_output_rms);
    o.number_field("occupied_bw_hz", r.report.occupied_bw_hz);
    if (opt.include_timing) {
        o.number_field("elapsed_s", r.elapsed_s);
        // Retry bookkeeping is measured data too: a warm (cache-hit) or
        // resumed rerun takes one attempt where the cold run retried.
        o.size_field("attempts", r.attempts);
        o.number_field("backoff_ms", r.backoff_ms);
        o.bool_field("gave_up", r.gave_up);
        o.bool_field("timed_out", r.timed_out);
    }
    return o.str();
}

std::string json_number(double v) {
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string json_quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/// Per-category telemetry aggregates as a JSON object keyed by category
/// name.  Measured data (appears only under include_timing); ns values as
/// JSON numbers — this is the human/analysis export, the full-fidelity
/// round trip lives in shard_io.
std::string telemetry_json(const telemetry::summary& s) {
    json_object_writer o;
    for (std::size_t i = 0; i < telemetry::category_count; ++i) {
        const auto& c = s.categories[i];
        json_object_writer cat;
        cat.size_field("count", c.count);
        cat.number_field("total_ns", static_cast<double>(c.total_ns));
        cat.number_field("mean_ns", c.mean_ns());
        cat.number_field("max_ns", static_cast<double>(c.max_ns));
        o.field(telemetry::to_string(static_cast<telemetry::category>(i)),
                cat.str());
    }
    return o.str();
}

} // namespace

std::string summary_json(const campaign_result& result,
                         const export_options& opt) {
    json_object_writer o;
    o.string_field("row", "summary");
    o.size_field("scenarios", result.scenario_count());
    o.size_field("golden_runs", result.golden_runs);
    o.size_field("golden_passes", result.golden_passes);
    o.number_field("yield", result.yield());
    o.size_field("fault_runs", result.fault_runs);
    o.size_field("fault_detected", result.fault_detected);
    o.number_field("coverage", result.coverage());
    o.number_field("escape_rate", result.escape_rate());
    if (opt.include_timing) {
        o.size_field("cache_hits", result.cache_hits);
        o.size_field("cache_misses", result.cache_misses);
        o.size_field("stage_reuse_hits", result.stage_reuse_hits);
        o.size_field("stage_reuse_computes", result.stage_reuse_computes);
        o.size_field("store_hits", result.store_hits);
        o.size_field("store_misses", result.store_misses);
        o.size_field("store_bytes",
                     static_cast<std::size_t>(result.store_bytes));
        o.size_field("scenario_retries", result.scenario_retries);
        o.size_field("scenario_gave_up", result.scenario_gave_up);
        o.size_field("resumed", result.resumed);
        o.size_field("quarantined", result.quarantined);
        o.number_field("wall_seconds", result.wall_s);
    }
    return o.str();
}

std::string to_json(const campaign_result& result, export_options opt) {
    std::string grid_axes;
    {
        json_object_writer o;
        std::string presets = "[";
        for (std::size_t i = 0; i < result.preset_names.size(); ++i) {
            if (i)
                presets += ',';
            presets += json_quote(result.preset_names[i]);
        }
        presets += ']';
        std::string faults = "[";
        for (std::size_t i = 0; i < result.fault_names.size(); ++i) {
            if (i)
                faults += ',';
            faults += json_quote(result.fault_names[i]);
        }
        faults += ']';
        o.field("presets", presets);
        o.field("faults", faults);
        o.size_field("trials", result.trials);
        o.string_field("seed", std::to_string(result.seed));
        if (opt.include_timing)
            o.size_field("threads", result.threads_used);
        grid_axes = o.str();
    }

    std::string summary;
    {
        json_object_writer o;
        o.size_field("scenarios", result.scenario_count());
        o.size_field("golden_runs", result.golden_runs);
        o.size_field("golden_passes", result.golden_passes);
        o.number_field("yield", result.yield());
        o.size_field("fault_runs", result.fault_runs);
        o.size_field("fault_detected", result.fault_detected);
        o.number_field("coverage", result.coverage());
        o.number_field("escape_rate", result.escape_rate());
        if (opt.include_timing) {
            o.number_field("wall_seconds", result.wall_s);
            o.number_field("scenario_cpu_seconds", result.scenario_cpu_s);
            o.number_field("scenarios_per_second",
                           result.scenarios_per_second());
            // Cache counters are measured data too: a warm rerun flips
            // misses into hits, so they would break byte-identity.
            o.size_field("cache_hits", result.cache_hits);
            o.size_field("cache_misses", result.cache_misses);
            // Stage-reuse totals are deterministic per shard partition
            // but not partition-invariant (a shard pools less than the
            // whole grid), so they live with the measured fields.
            o.size_field("stage_reuse_hits", result.stage_reuse_hits);
            o.size_field("stage_reuse_computes",
                         result.stage_reuse_computes);
            // Stage-store counters are measured data for the same reason:
            // a warm rerun flips store misses into hits.
            o.size_field("store_hits", result.store_hits);
            o.size_field("store_misses", result.store_misses);
            o.size_field("store_bytes",
                         static_cast<std::size_t>(result.store_bytes));
            // Failure-containment counters: retries depend on injected or
            // real transient faults, resume/quarantine on on-disk history
            // — none are properties of the grid itself.
            o.size_field("scenario_retries", result.scenario_retries);
            o.size_field("scenario_gave_up", result.scenario_gave_up);
            o.size_field("resumed", result.resumed);
            o.size_field("quarantined", result.quarantined);
            if (!result.telemetry_summary.empty())
                o.field("telemetry",
                        telemetry_json(result.telemetry_summary));
        }
        summary = o.str();
    }

    std::string matrix = "[";
    for (std::size_t p = 0; p < result.matrix.size(); ++p)
        for (std::size_t f = 0; f < result.matrix[p].size(); ++f) {
            if (matrix.size() > 1)
                matrix += ',';
            const auto& cell = result.matrix[p][f];
            json_object_writer o;
            o.string_field("preset", result.preset_names[p]);
            o.string_field("fault", result.fault_names[f]);
            o.size_field("runs", cell.runs);
            o.size_field("flagged", cell.flagged);
            o.number_field("fail_rate", cell.fail_rate());
            matrix += o.str();
        }
    matrix += ']';

    json_object_writer doc;
    doc.field("campaign", grid_axes);
    doc.field("summary", summary);
    doc.field("coverage_matrix", matrix);
    if (opt.include_scenarios) {
        std::string rows = "[";
        for (std::size_t i = 0; i < result.results.size(); ++i) {
            if (i)
                rows += ',';
            rows += scenario_json(result.results[i], opt);
        }
        rows += ']';
        doc.field("scenarios", rows);
    }
    return doc.str();
}

std::string coverage_csv(const campaign_result& result) {
    std::string out = "preset,fault,runs,flagged,fail_rate\n";
    for (std::size_t p = 0; p < result.matrix.size(); ++p)
        for (std::size_t f = 0; f < result.matrix[p].size(); ++f) {
            const auto& cell = result.matrix[p][f];
            out += csv_cell(result.preset_names[p]);
            out += ',';
            out += csv_cell(result.fault_names[f]);
            out += ',';
            out += format_size(cell.runs);
            out += ',';
            out += format_size(cell.flagged);
            out += ',';
            out += json_number(cell.fail_rate());
            out += '\n';
        }
    return out;
}

std::string scenarios_csv(const campaign_result& result, export_options opt) {
    std::string out = "index,preset,fault,trial,seed,pass,evm_percent,"
                      "mask_worst_margin_db,acpr_worst_dbc,skew_estimate_s,"
                      "error";
    if (opt.include_timing)
        out += ",elapsed_s,attempts";
    out += '\n';
    for (const auto& r : result.results) {
        out += format_size(r.sc.index);
        out += ',';
        out += csv_cell(r.sc.preset_name);
        out += ',';
        out += csv_cell(bist::to_string(r.sc.fault));
        out += ',';
        out += format_size(r.sc.trial);
        out += ',';
        out += std::to_string(r.sc.seed);
        out += ',';
        out += r.flagged() ? "0" : "1";
        out += ',';
        out += json_number(r.report.evm.evm_percent());
        out += ',';
        out += json_number(r.report.mask.worst_margin_db);
        out += ',';
        out += json_number(r.report.acpr.worst_dbc());
        out += ',';
        out += json_number(r.report.skew.d_hat);
        out += ',';
        out += csv_cell(r.error);
        if (opt.include_timing) {
            out += ',';
            out += json_number(r.elapsed_s);
            out += ',';
            out += format_size(r.attempts);
        }
        out += '\n';
    }
    return out;
}

std::string scenarios_jsonl(const campaign_result& result,
                            export_options opt) {
    std::string out;
    for (const auto& r : result.results) {
        out += scenario_json(r, opt);
        out += '\n';
    }
    if (opt.jsonl_summary) {
        out += summary_json(result, opt);
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------------
// Streaming JSONL sink
// ---------------------------------------------------------------------------

jsonl_stream::jsonl_stream(std::string path, export_options opt)
    : path_(std::move(path)), opt_(opt),
      out_(path_, std::ios::binary | std::ios::trunc) {
    SDRBIST_EXPECTS(out_.good());
}

jsonl_stream::~jsonl_stream() {
    try {
        finalise();
    } catch (...) {
        // Destructor best-effort: the completion-order file is still valid
        // JSONL, just not grid-ordered.
    }
}

void jsonl_stream::append(const scenario_result& r) {
    const std::string line = scenario_json(r, opt_) + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    SDRBIST_EXPECTS(!finalised_);
    out_ << line;
    out_.flush(); // each row must be observable before the run finishes
    rows_.push_back({r.sc.index, bytes_written_, line.size()});
    bytes_written_ += line.size();
}

void jsonl_stream::finalise() {
    const std::lock_guard<std::mutex> lock(mutex_);
    finalise_locked(nullptr);
}

void jsonl_stream::finalise(const campaign_result& result) {
    const std::string summary_row = summary_json(result, opt_) + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    finalise_locked(&summary_row);
}

void jsonl_stream::finalise_locked(const std::string* summary_row) {
    if (finalised_)
        return;
    out_.close();

    // Re-read the completion-order bytes and publish the grid-ordered
    // artefact atomically: write a sibling temp file, then rename over the
    // original.  Any failure leaves the completion-order file untouched —
    // still valid JSONL, still salvageable.
    std::string streamed;
    {
        std::ifstream in(path_, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        streamed = buffer.str();
    }
    SDRBIST_ENSURES(streamed.size() == bytes_written_);

    std::sort(rows_.begin(), rows_.end(),
              [](const row_ref& a, const row_ref& b) {
                  return a.grid_index < b.grid_index;
              });
    const std::string tmp = path_ + ".ordered.tmp";
    {
        std::ofstream ordered(tmp, std::ios::binary | std::ios::trunc);
        for (const auto& row : rows_)
            ordered.write(streamed.data() +
                              static_cast<std::streamoff>(row.offset),
                          static_cast<std::streamsize>(row.length));
        if (summary_row)
            ordered.write(summary_row->data(),
                          static_cast<std::streamsize>(summary_row->size()));
        ordered.flush();
        if (!ordered.good()) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            SDRBIST_ENSURES(!"jsonl_stream finalise: ordered rewrite failed");
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path_, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        SDRBIST_ENSURES(!"jsonl_stream finalise: rename failed");
    }
    finalised_ = true;
}

std::size_t jsonl_stream::rows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rows_.size();
}

text_table coverage_table(const campaign_result& result) {
    std::vector<std::string> headers;
    headers.reserve(result.fault_names.size() + 1);
    headers.push_back("preset");
    for (const auto& f : result.fault_names)
        headers.push_back(f);
    text_table table(std::move(headers));
    table.set_title("fault-coverage matrix (flagged/runs)");
    for (std::size_t p = 0; p < result.matrix.size(); ++p) {
        std::vector<std::string> row;
        row.reserve(result.matrix[p].size() + 1);
        row.push_back(result.preset_names[p]);
        for (const auto& cell : result.matrix[p])
            row.push_back(format_size(cell.flagged) + "/" +
                          format_size(cell.runs));
        table.add_row(std::move(row));
    }
    return table;
}

// ---------------------------------------------------------------------------
// json_value accessors
// ---------------------------------------------------------------------------

bool json_value::as_bool() const {
    SDRBIST_EXPECTS(is_bool());
    return std::get<bool>(v_);
}

double json_value::as_number() const {
    SDRBIST_EXPECTS(is_number());
    return std::get<double>(v_);
}

double json_value::as_number_or_nan() const {
    return is_null() ? std::numeric_limits<double>::quiet_NaN() : as_number();
}

std::size_t json_value::as_size() const {
    const double x = as_number();
    // 2^53: the largest range in which every integer is a double.  The
    // comparisons also reject NaN, so the cast below is always defined.
    SDRBIST_EXPECTS(x >= 0.0 && x <= 9007199254740992.0 &&
                    std::trunc(x) == x);
    return static_cast<std::size_t>(x);
}

std::uint64_t json_value::as_u64() const {
    const std::string& s = as_string();
    // from_chars on an unsigned type takes digits only (no sign, no
    // whitespace) and reports overflow; a full match rejects the rest.
    std::uint64_t out = 0;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
    SDRBIST_EXPECTS(res.ec == std::errc() && res.ptr == s.data() + s.size());
    return out;
}

const std::string& json_value::as_string() const {
    SDRBIST_EXPECTS(is_string());
    return std::get<std::string>(v_);
}

const json_value::array& json_value::as_array() const {
    SDRBIST_EXPECTS(is_array());
    return std::get<array>(v_);
}

const json_value::object& json_value::as_object() const {
    SDRBIST_EXPECTS(is_object());
    return std::get<object>(v_);
}

const json_value& json_value::at(const std::string& key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    SDRBIST_EXPECTS(it != obj.end());
    return it->second;
}

const json_value& json_value::at(std::size_t i) const {
    const auto& arr = as_array();
    SDRBIST_EXPECTS(i < arr.size());
    return arr[i];
}

std::size_t json_value::size() const {
    if (is_array())
        return std::get<array>(v_).size();
    if (is_object())
        return std::get<object>(v_).size();
    SDRBIST_EXPECTS(!"json_value::size on a scalar");
    return 0;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent over the subset the exporter emits)
// ---------------------------------------------------------------------------

namespace {

class json_parser {
public:
    explicit json_parser(const std::string& text) : text_(text) {}

    json_value parse_document() {
        json_value v = parse_value();
        skip_ws();
        SDRBIST_EXPECTS(pos_ == text_.size());
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        SDRBIST_EXPECTS(pos_ < text_.size());
        return text_[pos_];
    }

    void expect(char c) {
        SDRBIST_EXPECTS(pos_ < text_.size() && text_[pos_] == c);
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    json_value parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '{')
            return parse_object();
        if (c == '[')
            return parse_array();
        if (c == '"')
            return json_value(parse_string());
        if (consume_literal("true"))
            return json_value(true);
        if (consume_literal("false"))
            return json_value(false);
        if (consume_literal("null"))
            return json_value(nullptr);
        return parse_number();
    }

    /// Counts one level of nesting for the lifetime of a container parse.
    class depth_guard {
    public:
        explicit depth_guard(std::size_t& depth) : depth_(depth) {
            SDRBIST_EXPECTS(++depth_ <= json_max_depth);
        }
        ~depth_guard() { --depth_; }
        depth_guard(const depth_guard&) = delete;
        depth_guard& operator=(const depth_guard&) = delete;

    private:
        std::size_t& depth_;
    };

    json_value parse_object() {
        const depth_guard guard(depth_);
        expect('{');
        json_value::object obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return json_value(std::move(obj));
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj.emplace(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return json_value(std::move(obj));
        }
    }

    json_value parse_array() {
        const depth_guard guard(depth_);
        expect('[');
        json_value::array arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return json_value(std::move(arr));
        }
        for (;;) {
            arr.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return json_value(std::move(arr));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            SDRBIST_EXPECTS(pos_ < text_.size());
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            SDRBIST_EXPECTS(pos_ < text_.size());
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                SDRBIST_EXPECTS(pos_ + 4 <= text_.size());
                unsigned code = 0;
                const auto res = std::from_chars(
                    text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
                SDRBIST_EXPECTS(res.ptr == text_.data() + pos_ + 4);
                pos_ += 4;
                // UTF-8 encode (no surrogate-pair support; the exporter
                // only emits \u00XX control escapes).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                SDRBIST_EXPECTS(!"invalid escape sequence");
            }
        }
    }

    json_value parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        double value = 0.0;
        const auto res = std::from_chars(text_.data() + start,
                                         text_.data() + pos_, value);
        SDRBIST_EXPECTS(res.ec == std::errc() &&
                        res.ptr == text_.data() + pos_);
        return json_value(value);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

} // namespace

json_value parse_json(const std::string& text) {
    return json_parser(text).parse_document();
}

} // namespace sdrbist::campaign
