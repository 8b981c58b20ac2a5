/// \file artefact_store.hpp
/// \brief Persistent, content-addressed store of BIST stage outputs and
///        finished scenario outcomes.
///
/// One directory holds six record kinds: the five intermediate stage
/// outputs of the staged pipeline, keyed by their chained input digests
/// (bist/config_canonical.hpp), and the finished scenario outcome
/// (`scenario_record_kind`), keyed by the scenario key
/// (campaign/cache.hpp).  Equal keys guarantee bit-identical records, so a
/// hit skips the work that would have produced it — across runs and
/// across processes, not just within one campaign's in-memory stage pool.
///
/// Entry layout (`<dir>/<16-hex-key>-<kind>.sab`):
///
///   one JSON header line
///     {"store_version":V,"codec":C,"kind":"...","key":"...",
///      "stage_canonical_version":S,"raw_bytes":N,"payload_bytes":M,
///      "payload_fnv":"..."}\n
///   followed by exactly M bytes of byte_codec-compressed payload — the
///   compressed form of the record's JSON serialisation (N raw bytes).
///
/// Load semantics: a missing file is a plain miss; version skew
/// (store_version, codec, stage_canonical_version) is a plain miss that
/// stays put for `cache-gc`; anything corrupt (garbled header, size or
/// checksum mismatch, name/content disagreement, oversized `raw_bytes`,
/// payload that fails to decompress or decode) is quarantined into
/// `<dir>/quarantine/` and read as a miss.  Publishes are atomic (unique
/// temp + rename) and best-effort.  Hits touch the entry's mtime
/// (best-effort) so GC can evict least-recently-used entries first, over
/// every kind at once.
///
/// Telemetry: counters `store.hits` / `store.misses` / `store.bytes` (raw
/// bytes served by hits) count the five stage kinds only, bumped at the
/// same sites as the stage store's own atomics, so counter totals equal
/// result totals exactly; scenario lookups are the `cache.*` counters.
/// `cache-gc` bumps `store.evictions` per budget-evicted entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "bist/pipeline.hpp"

namespace sdrbist::campaign {

class json_value;

/// On-disk entry format version (header layout, stage_codec field sets and
/// the scenario record's field set).  Any change to any of them MUST bump
/// this so stale entries read as misses.
inline constexpr int store_format_version = 2;

/// The record kind of a finished scenario outcome; the five stage kinds
/// are named by `bist::to_string(stage)`.
inline constexpr std::string_view scenario_record_kind = "scenario";

/// One directory of store entries: the entry path every record kind
/// shares.  Thread-safe: concurrent loads/stores from any number of
/// threads and processes sharing the directory are safe (atomic publish,
/// last rename wins with identical content).
class entry_store {
public:
    /// Opens (creating if needed) the directory.  Throws
    /// contract_violation when the directory cannot be created.
    explicit entry_store(std::string dir);

    /// File path of entry (`key`, `kind`).
    [[nodiscard]] std::string path_for(const std::string& key,
                                       std::string_view kind) const;

    /// Read, verify and decompress entry (`key`, `kind`), then hand its
    /// raw payload to `decode`.  False on a miss.  A corrupt entry —
    /// including one whose payload `decode` rejects by throwing — is
    /// moved to quarantine/ first; a version-skewed one stays put.
    bool load(const std::string& key, std::string_view kind,
              const std::function<void(const std::string&)>& decode) const;

    /// Compress and atomically publish `raw` as entry (`key`, `kind`).
    /// Best-effort: storage failure degrades to a future miss.
    void store(const std::string& key, std::string_view kind,
               const std::string& raw) const;

    [[nodiscard]] const std::string& dir() const { return dir_; }

    /// Corrupt entries this instance has moved to quarantine/.
    [[nodiscard]] std::uint64_t quarantined() const {
        return quarantined_.load(std::memory_order_relaxed);
    }

private:
    std::string dir_;
    mutable std::atomic<std::uint64_t> quarantined_{0};
};

/// Compressed on-disk implementation of bist::stage_snapshot_store: the
/// five stage kinds of the store.  Thread-safe like entry_store.
class stage_artefact_store final : public bist::stage_snapshot_store {
public:
    /// Opens (creating if needed) the store directory.  Throws
    /// contract_violation when the directory cannot be created.
    explicit stage_artefact_store(std::string dir);

    [[nodiscard]] std::shared_ptr<const bist::stimulus_output>
    load_stimulus(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::tx_capture_output>
    load_tx_capture(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::calibration_output>
    load_calibration(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::reconstruction_output>
    load_reconstruction(std::uint64_t digest) override;
    [[nodiscard]] std::shared_ptr<const bist::grading_output>
    load_grading(std::uint64_t digest) override;

    void store_stimulus(std::uint64_t digest,
                        const bist::stimulus_output& out) override;
    void store_tx_capture(std::uint64_t digest,
                          const bist::tx_capture_output& out) override;
    void store_calibration(std::uint64_t digest,
                           const bist::calibration_output& out) override;
    void store_reconstruction(std::uint64_t digest,
                              const bist::reconstruction_output& out) override;
    void store_grading(std::uint64_t digest,
                       const bist::grading_output& out) override;

    /// File path an entry lives at.
    [[nodiscard]] std::string path_for(std::uint64_t digest,
                                       bist::stage s) const;

    [[nodiscard]] const std::string& dir() const { return entries_.dir(); }

    /// Result counters — exactly equal to the telemetry counters this
    /// instance emitted (bumped at the same sites).
    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }
    /// Raw (uncompressed) bytes served by hits.
    [[nodiscard]] std::uint64_t bytes_served() const {
        return bytes_.load(std::memory_order_relaxed);
    }
    /// Corrupt entries moved to quarantine/ by this instance.
    [[nodiscard]] std::uint64_t quarantined() const {
        return entries_.quarantined();
    }

private:
    /// Load one stage entry through `decode`, counting the hit or miss.
    void load(std::uint64_t digest, bist::stage s,
              const std::function<void(const json_value&)>& decode);
    void store(std::uint64_t digest, bist::stage s, const std::string& raw);

    entry_store entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

/// Move `file` into a `quarantine/` directory beside it (collisions get a
/// numeric suffix).  Shared by the store, the shard salvage reader and
/// anything else that must get a corrupt input out of the way without
/// destroying the evidence.  Returns false when the move failed (the file
/// is left in place).
bool quarantine_file(const std::string& file);

// ---------------------------------------------------------------------------
// Store lifecycle tooling (the CLI's `cache-stats` / `cache-gc`).
// ---------------------------------------------------------------------------

/// One pass over a store directory, classifying every file the store's
/// naming scheme owns, whatever its record kind.
struct store_dir_stats {
    std::size_t entries = 0;   ///< readable, current-version entries
    std::size_t stale = 0;     ///< version-skewed (read as plain misses)
    std::size_t corrupt = 0;   ///< garbled header / size / name mismatch
    std::size_t stray_tmp = 0; ///< leftover atomic-publish temp files
    std::uintmax_t bytes = 0;  ///< total size of everything classified
    /// store_version value → entry count (corrupt entries excluded).
    std::map<std::size_t, std::size_t> version_histogram;

    [[nodiscard]] std::size_t files() const {
        return entries + stale + corrupt + stray_tmp;
    }
};

/// Classify every store file under `dir` (flat, non-recursive).  Files
/// outside the store's naming scheme (such as the `<key>.json` entries of
/// the retired scenario-cache format) are never counted or touched.
/// Throws contract_violation when `dir` is not a directory.
store_dir_stats scan_store_dir(const std::string& dir);

/// Eviction budgets for gc_store_dir.  Zero means "unlimited" for each
/// knob; removal of stale/corrupt/stray files happens regardless.
struct store_gc_policy {
    std::uintmax_t max_bytes = 0;  ///< total healthy-entry byte budget
    std::uint64_t max_age_s = 0;   ///< evict entries idle longer than this
    std::size_t max_entries = 0;   ///< healthy-entry count budget
};

/// Outcome of a garbage collection over a store directory.
struct store_gc_result {
    std::size_t scanned = 0;
    std::size_t removed = 0;  ///< stale/corrupt entries and stray temps
    std::size_t evicted = 0;  ///< healthy entries evicted by the budgets
    std::size_t kept = 0;     ///< healthy entries surviving the pass
    std::uintmax_t bytes_freed = 0;
};

/// Remove everything a warm run could not use (stale, corrupt, stray
/// temps), then apply the budgets to the healthy entries of every kind as
/// one set: age first, then evict least-recently-used (oldest mtime,
/// filename as the deterministic tie-break) until both the byte and the
/// entry-count budget hold.  Each
/// budget eviction bumps telemetry counter `store.evictions`.  Files
/// outside the store's naming scheme are never touched.  Throws
/// contract_violation when `dir` is not a directory.
store_gc_result gc_store_dir(const std::string& dir,
                             store_gc_policy policy = {});

} // namespace sdrbist::campaign
