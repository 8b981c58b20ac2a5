#include "campaign/shard_io.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h> // getpid: temp names must be unique across processes
#endif

#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/hash.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign {

namespace {

std::string name_array_json(const std::vector<std::string>& names) {
    std::string out = "[";
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i)
            out += ',';
        out += json_quote(names[i]);
    }
    out += ']';
    return out;
}

std::vector<std::string> name_array_from_json(const json_value& v) {
    std::vector<std::string> out;
    out.reserve(v.as_array().size());
    for (const auto& e : v.as_array())
        out.push_back(e.as_string());
    return out;
}

/// Per-category aggregates, in category declaration order.  The ns fields
/// travel as decimal strings: totals can exceed the 53 bits a JSON number
/// round-trips, and shard files promise write(read(x)) == write(x).
std::string telemetry_block_json(const telemetry::summary& s) {
    std::string out = "[";
    for (std::size_t i = 0; i < telemetry::category_count; ++i) {
        if (i)
            out += ',';
        const auto& c = s.categories[i];
        json_object_writer o;
        o.string_field("category",
                       telemetry::to_string(
                           static_cast<telemetry::category>(i)));
        o.size_field("count", c.count);
        o.string_field("total_ns", std::to_string(c.total_ns));
        o.string_field("max_ns", std::to_string(c.max_ns));
        out += o.str();
    }
    out += ']';
    return out;
}

telemetry::summary telemetry_block_from_json(const json_value& v) {
    telemetry::summary out;
    const auto& arr = v.as_array();
    SDRBIST_EXPECTS(arr.size() == telemetry::category_count);
    for (std::size_t i = 0; i < arr.size(); ++i) {
        SDRBIST_EXPECTS(arr[i].at("category").as_string() ==
                        telemetry::to_string(
                            static_cast<telemetry::category>(i)));
        out.categories[i].count = arr[i].at("count").as_size();
        out.categories[i].total_ns = arr[i].at("total_ns").as_u64();
        out.categories[i].max_ns = arr[i].at("max_ns").as_u64();
    }
    return out;
}

} // namespace

std::string scenario_row_json(const scenario_result& r) {
    json_object_writer o;
    o.size_field("index", r.sc.index);
    o.size_field("preset_index", r.sc.preset_index);
    o.size_field("fault_index", r.sc.fault_index);
    o.size_field("trial", r.sc.trial);
    o.string_field("preset", r.sc.preset_name);
    o.string_field("fault", bist::to_string(r.sc.fault));
    o.string_field("seed", std::to_string(r.sc.seed));
    o.bool_field("engine_error", r.engine_error);
    o.string_field("error", r.error);
    o.number_field("elapsed_s", r.elapsed_s);
    o.size_field("attempts", r.attempts);
    o.number_field("backoff_ms", r.backoff_ms);
    o.bool_field("gave_up", r.gave_up);
    o.bool_field("timed_out", r.timed_out);
    o.field("report", report_json(r.report));
    return o.str();
}

scenario_result scenario_row_from_json(const json_value& v) {
    scenario_result r;
    r.sc.index = v.at("index").as_size();
    r.sc.preset_index = v.at("preset_index").as_size();
    r.sc.fault_index = v.at("fault_index").as_size();
    r.sc.trial = v.at("trial").as_size();
    r.sc.preset_name = v.at("preset").as_string();
    r.sc.fault = bist::fault_from_string(v.at("fault").as_string());
    r.sc.seed = v.at("seed").as_u64();
    r.engine_error = v.at("engine_error").as_bool();
    r.error = v.at("error").as_string();
    r.elapsed_s = v.at("elapsed_s").as_number_or_nan();
    r.attempts = v.at("attempts").as_size();
    r.backoff_ms = v.at("backoff_ms").as_number_or_nan();
    r.gave_up = v.at("gave_up").as_bool();
    r.timed_out = v.at("timed_out").as_bool();
    r.report = report_from_json(v.at("report"));
    return r;
}

std::string result_to_json(const campaign_result& result) {
    json_object_writer doc;
    doc.size_field("shard_file_version",
                   static_cast<std::size_t>(shard_file_version));
    doc.field("presets", name_array_json(result.preset_names));
    doc.field("faults", name_array_json(result.fault_names));
    doc.size_field("trials", result.trials);
    doc.string_field("seed", std::to_string(result.seed));
    doc.size_field("shard_index", result.shard_index);
    doc.size_field("shard_count", result.shard_count);
    doc.size_field("grid_size", result.grid_size);
    doc.size_field("threads_used", result.threads_used);
    doc.number_field("wall_s", result.wall_s);
    doc.size_field("cache_hits", result.cache_hits);
    doc.size_field("cache_misses", result.cache_misses);
    doc.size_field("stage_reuse_hits", result.stage_reuse_hits);
    doc.size_field("stage_reuse_computes", result.stage_reuse_computes);
    doc.size_field("store_hits", result.store_hits);
    doc.size_field("store_misses", result.store_misses);
    doc.size_field("store_bytes",
                   static_cast<std::size_t>(result.store_bytes));
    doc.size_field("resumed", result.resumed);
    doc.size_field("quarantined", result.quarantined);
    doc.field("telemetry", telemetry_block_json(result.telemetry_summary));
    std::string rows = "[";
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        if (i)
            rows += ',';
        rows += scenario_row_json(result.results[i]);
    }
    rows += ']';
    doc.field("results", rows);
    return doc.str();
}

campaign_result result_from_json(const json_value& doc) {
    SDRBIST_EXPECTS(doc.at("shard_file_version").as_size() ==
                    static_cast<std::size_t>(shard_file_version));
    campaign_result out;
    out.preset_names = name_array_from_json(doc.at("presets"));
    out.fault_names = name_array_from_json(doc.at("faults"));
    out.trials = doc.at("trials").as_size();
    out.seed = doc.at("seed").as_u64();
    out.shard_index = doc.at("shard_index").as_size();
    out.shard_count = doc.at("shard_count").as_size();
    out.grid_size = doc.at("grid_size").as_size();
    out.threads_used = doc.at("threads_used").as_size();
    out.wall_s = doc.at("wall_s").as_number_or_nan();
    out.cache_hits = doc.at("cache_hits").as_size();
    out.cache_misses = doc.at("cache_misses").as_size();
    out.stage_reuse_hits = doc.at("stage_reuse_hits").as_size();
    out.stage_reuse_computes = doc.at("stage_reuse_computes").as_size();
    out.store_hits = doc.at("store_hits").as_size();
    out.store_misses = doc.at("store_misses").as_size();
    out.store_bytes = doc.at("store_bytes").as_size();
    out.resumed = doc.at("resumed").as_size();
    out.quarantined = doc.at("quarantined").as_size();
    out.telemetry_summary = telemetry_block_from_json(doc.at("telemetry"));
    for (const auto& row : doc.at("results").as_array())
        out.results.push_back(scenario_row_from_json(row));
    // The coverage matrix and population statistics are deliberately not
    // stored: merge_results() re-derives them from the rows through the
    // same aggregation path an unsharded run uses.
    return out;
}

campaign_result read_result_file(const std::string& path) {
    const telemetry::scoped_span span(telemetry::category::shard,
                                      "shard.read");
    fault_injection::fire(fault_injection::site::shard_read);
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw contract_violation("cannot read shard file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        return result_from_json(parse_json(buffer.str()));
    } catch (const std::exception& e) {
        throw contract_violation("malformed shard file " + path + ": " +
                                 e.what());
    }
}

bool write_result_file(const std::string& path,
                       const campaign_result& result) {
    const telemetry::scoped_span span(telemetry::category::shard,
                                      "shard.write");
    fault_injection::fire(fault_injection::site::shard_write);
    std::string body = result_to_json(result);
    body += '\n';
    fault_injection::corrupt(fault_injection::site::shard_write, body);

    // Atomic publish (same discipline as the scenario cache): write a
    // uniquely named temp file next to the target, then rename over it, so
    // a crash or SIGKILL mid-write leaves the target either absent or
    // complete — never a torn file that strict --merge rejects.
#if defined(__unix__) || defined(__APPLE__)
    const std::uint64_t process_tag = static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t process_tag =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
#endif
    static std::atomic<std::uint64_t> sequence{0};
    const std::string tmp =
        path + ".tmp." + fnv1a64::hex_digest(process_tag) + "." +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    namespace fs = std::filesystem;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            return false;
        out << body;
        out.flush();
        if (!out.good()) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::vector<campaign_result>
read_result_files_salvage(const std::vector<std::string>& paths,
                          salvage_stats& stats) {
    std::vector<campaign_result> out;
    out.reserve(paths.size());
    for (const std::string& path : paths) {
        try {
            out.push_back(read_result_file(path));
        } catch (const std::exception& e) {
            // Unreadable, truncated, garbled or version-skewed: move the
            // file aside so reruns do not trip over it, and keep merging.
            ++stats.quarantined_files;
            std::string note = "quarantined shard file " + path + ": ";
            note += e.what();
            if (!quarantine_file(path))
                note += " (quarantine move failed; left in place)";
            stats.notes.push_back(std::move(note));
        }
    }
    return out;
}

} // namespace sdrbist::campaign
