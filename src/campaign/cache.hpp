/// \file cache.hpp
/// \brief Scenario result cache: finished scenario outcomes as the
///        `scenario` record kind of the stage-artefact store.
///
/// A campaign over a standard × fault × Monte-Carlo grid is only cheap to
/// *regrade* if already-graded scenarios can be skipped.  The cache keys
/// each scenario by an FNV-1a hash of
///
///   - a key-derivation salt (changing it orphans every old entry),
///   - the seed-derivation version (scenario seeds are a function of the
///     master seed and grid coordinates; changing that function must move
///     every key),
///   - the scenario grid coordinates (preset name, fault name, trial) and
///     the derived scenario seed,
///   - the grading-stage input digest of the fully *materialised* engine
///     config (bist/config_canonical.hpp) — preset applied, fault
///     injected, seeds and Monte-Carlo perturbations baked in.  The digest
///     chains the canonical slices of all five stages, the same form that
///     keys the stage entries.
///
/// Because the materialised config determines the report bit-for-bit, a
/// hit can stand in for an engine run: a warm rerun reproduces the cold
/// run's coverage matrix and timing-free exports byte-identically.
/// Entries are store entries (`<dir>/<16-hex-key>-scenario.sab`,
/// campaign/artefact_store/artefact_store.hpp): the same header, codec,
/// atomic publish, quarantine, LRU touch and `cache-stats`/`cache-gc`
/// tooling as the five stage kinds, so one directory can hold both.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/stage_codec.hpp" // report codec
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"

namespace sdrbist::campaign {

/// Version of the master-seed → scenario-seed derivation in
/// campaign.cpp.  Part of every key: if the derivation changes, equal
/// scenario coordinates no longer mean equal work.
inline constexpr int seed_derivation_version = 1;

class scenario_cache {
public:
    /// Opens (creating if needed) the cache directory.  Throws
    /// contract_violation when the directory cannot be created.
    explicit scenario_cache(std::string dir);

    /// Content-hash key for one scenario (16 lowercase hex chars).  Pure
    /// function of the scenario coordinates and the materialised config —
    /// deliberately independent of grid *shape*, so overlapping grids
    /// (more trials, appended presets) share entries.
    [[nodiscard]] static std::string
    key(const scenario& sc, const bist::bist_config& materialised);

    /// Load a cached outcome: `report`, `engine_error`, `error` and
    /// `elapsed_s`, plus the preset name, fault, trial and seed it was
    /// graded at (the caller owns the running grid's coordinates, so it
    /// restores only the outcome).  Every member of the record is
    /// required.  nullopt on miss/corruption/version skew; a corrupt or
    /// incomplete entry is also quarantined and counted.
    [[nodiscard]] std::optional<scenario_result>
    load(const std::string& key) const;

    /// Persist one graded scenario under `key`.  Atomic and best-effort:
    /// storage failure degrades to a future miss, never aborts a campaign.
    void store(const std::string& key, const scenario_result& r) const;

    /// File path an entry with this key lives at.
    [[nodiscard]] std::string path_for(const std::string& key) const {
        return entries_.path_for(key, scenario_record_kind);
    }

    [[nodiscard]] const std::string& dir() const { return entries_.dir(); }

    /// Corrupt entries this instance has quarantined (the runner folds
    /// this into `campaign_result::quarantined`).
    [[nodiscard]] std::size_t quarantined() const {
        return static_cast<std::size_t>(entries_.quarantined());
    }

private:
    entry_store entries_;
};

} // namespace sdrbist::campaign
