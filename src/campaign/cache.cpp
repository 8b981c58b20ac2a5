#include "campaign/cache.hpp"

#include "bist/config_canonical.hpp"
#include "core/contracts.hpp"
#include "core/hash.hpp"

namespace sdrbist::campaign {

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
        r.elapsed_s = doc.at("elapsed_s").as_number_or_nan();
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
