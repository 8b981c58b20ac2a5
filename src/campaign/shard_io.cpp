#include "campaign/shard_io.hpp"

#include <fstream>
#include <sstream>

#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign {

template <class Io> void describe(Io& io, scenario_result& r) {
    io("index", r.sc.index);
    io("preset_index", r.sc.preset_index);
    io("fault_index", r.sc.fault_index);
    io("trial", r.sc.trial);
    io("preset", r.sc.preset_name);
    io("fault", r.sc.fault);
    io("seed", decimal{r.sc.seed});
    io("engine_error", r.engine_error);
    io("error", r.error);
    io("elapsed_s", r.elapsed_s);
    io("attempts", r.attempts);
    io("backoff_ms", r.backoff_ms);
    io("gave_up", r.gave_up);
    io("timed_out", r.timed_out);
    io("report", r.report);
}

template <class Io> void describe(Io& io, campaign_result& r) {
    io.expect("shard_file_version",
              static_cast<std::size_t>(shard_file_version));
    io("presets", r.preset_names);
    io("faults", r.fault_names);
    io("trials", r.trials);
    io("seed", decimal{r.seed});
    io("shard_index", r.shard_index);
    io("shard_count", r.shard_count);
    io("grid_size", r.grid_size);
    io("threads_used", r.threads_used);
    io("wall_s", r.wall_s);
    io("cache_hits", r.cache_hits);
    io("cache_misses", r.cache_misses);
    io("stage_reuse_hits", r.stage_reuse_hits);
    io("stage_reuse_computes", r.stage_reuse_computes);
    io("store_hits", r.store_hits);
    io("store_misses", r.store_misses);
    io("store_bytes", r.store_bytes);
    io("resumed", r.resumed);
    io("quarantined", r.quarantined);
    // Per-category aggregates, in category declaration order.  The ns
    // totals travel as decimal strings: they can exceed the 53 bits a JSON
    // number round-trips, and shard files promise write(read(x)) ==
    // write(x).
    io.each("telemetry", r.telemetry_summary.categories,
            [](auto& entry, telemetry::category_stats& c, std::size_t i) {
                entry.expect("category",
                             std::string(telemetry::to_string(
                                 static_cast<telemetry::category>(i))));
                entry("count", c.count);
                entry("total_ns", decimal{c.total_ns});
                entry("max_ns", decimal{c.max_ns});
            });
    // The coverage matrix and population statistics are deliberately not
    // stored: merge_results() re-derives them from the rows through the
    // same aggregation path an unsharded run uses.
    io("results", r.results);
}

std::string scenario_row_json(const scenario_result& r) {
    return record_writer::encode(r);
}

scenario_result scenario_row_from_json(const json_value& v) {
    return record_reader::decode<scenario_result>(v);
}

std::string result_to_json(const campaign_result& result) {
    return record_writer::encode(result);
}

campaign_result result_from_json(const json_value& doc) {
    return record_reader::decode<campaign_result>(doc);
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
    return publish_file(path, body);
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
