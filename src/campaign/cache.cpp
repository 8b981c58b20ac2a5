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
    // The key-derivation salt: changing it orphans every entry.
    h.update("sdrbist-scenario-cache-v1\n");
    h.update("seed-derivation-v" + std::to_string(seed_derivation_version) +
             "\n");
    // Grid coordinates by *name*, never by index: a subset or extended
    // grid that keeps a scenario's coordinates keeps its key.
    h.update("preset=" + sc.preset_name + "\n");
    h.update("fault=" + bist::to_string(sc.fault) + "\n");
    h.update("trial=" + std::to_string(sc.trial) + "\n");
    h.update("scenario_seed=" + std::to_string(sc.seed) + "\n");
    // The grading input digest chains every stage's canonical slice, so
    // it covers every field the engine reads; only the preset name is
    // left out of it, and that is hashed above as a coordinate.
    h.update("config=" +
             fnv1a64::hex_digest(bist::stage_input_digest(
                 materialised, bist::stage::grading)) +
             "\n");
    return h.hex();
}

namespace {

/// The scenario record: a graded outcome and the grid coordinates it was
/// graded at.  The running grid owns its coordinates, so a hit restores
/// only the outcome; the coordinates are read all the same, which keeps
/// every member of the record required.
template <class Io> void describe_entry(Io& io, scenario_result& r) {
    io("preset", r.sc.preset_name);
    io("fault", r.sc.fault);
    io("trial", r.sc.trial);
    io("seed", decimal{r.sc.seed});
    io("engine_error", r.engine_error);
    io("error", r.error);
    io("elapsed_s", r.elapsed_s);
    io("report", r.report);
}

} // namespace

std::optional<scenario_result>
scenario_cache::load(const std::string& key) const {
    std::optional<scenario_result> out;
    entries_.load(key, scenario_record_kind, [&](const std::string& raw) {
        const json_value doc = parse_json(raw);
        scenario_result r;
        record_reader in(doc);
        describe_entry(in, r);
        out = std::move(r);
    });
    return out;
}

void scenario_cache::store(const std::string& key,
                           const scenario_result& r) const {
    record_writer out;
    describe_entry(out, const_cast<scenario_result&>(r)); // only read
    entries_.store(key, scenario_record_kind, out.str());
}

} // namespace sdrbist::campaign
