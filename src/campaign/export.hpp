/// \file export.hpp
/// \brief Structured campaign-result export: deterministic JSON and CSV,
///        streaming JSONL, plus text-table rendering through core/table.
///
/// Export is deterministic: field order is fixed, numbers are printed in
/// shortest round-trip form, and rows follow the grid order — two campaigns
/// with the same config produce byte-identical artefacts (measured fields
/// can be suppressed via export_options for byte-level comparisons).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/table.hpp"

namespace sdrbist::campaign {

/// Controls for the exporters.
struct export_options {
    /// Include the *measured* fields: wall/elapsed timing, worker thread
    /// count and cache hit/miss counters.  None of these is reproducible
    /// run-to-run (a warm rerun flips misses into hits just like it moves
    /// the wall time); disable for byte-identical artefacts.
    bool include_timing = true;
    /// Include the per-scenario rows (the bulk of the payload) in JSON.
    bool include_scenarios = true;
    /// Append the summary row (see summary_json) to JSONL exports.  Off by
    /// default so scenario-rows-only consumers keep a uniform schema.
    bool jsonl_summary = false;
};

/// Full campaign result as a JSON document (objects with fixed key order).
std::string to_json(const campaign_result& result, export_options opt = {});

/// Fault-coverage matrix as CSV: preset,fault,runs,flagged,fail_rate.
std::string coverage_csv(const campaign_result& result);

/// Per-scenario rows as CSV (grid order).
std::string scenarios_csv(const campaign_result& result,
                          export_options opt = {});

/// One scenario row as a JSON object — the payload of the `scenarios`
/// array in to_json() and of one JSONL line.
std::string scenario_json(const scenario_result& r,
                          const export_options& opt = {});

/// All scenario rows as JSONL (one scenario_json object per line, grid
/// order).  Byte-identical to what jsonl_stream leaves on disk after
/// finalise() for the same rows and options.  With `opt.jsonl_summary` a
/// summary row is appended (matching jsonl_stream::finalise(result)).
std::string scenarios_jsonl(const campaign_result& result,
                            export_options opt = {});

/// The JSONL summary row: `{"row":"summary",...}` with the population
/// statistics and — timing on — the cache and stage-reuse counters.
/// Distinguishable from scenario rows by its `row` field.  Only
/// deterministic fields are emitted under `include_timing == false`, so
/// merged-vs-unsharded artefacts stay byte-comparable (stage-reuse totals
/// are partition-dependent: a shard pools less than the whole grid).
std::string summary_json(const campaign_result& result,
                         const export_options& opt = {});

/// Coverage matrix rendered as a core/table text table (presets as rows,
/// faults as columns, cells flagged/runs).
text_table coverage_table(const campaign_result& result);

/// Streaming JSONL sink: emits one scenario row per line *as scenarios
/// complete*, so long grids produce a consumable artefact incrementally
/// (tail -f, partial-failure salvage).  Thread-safe — hand `append` to
/// campaign::run_hooks::on_scenario directly.  Lines land on disk in
/// completion order (flushed per row); finalise() rewrites the file in
/// grid order, making the artefact deterministic and byte-identical to
/// scenarios_jsonl() of the finished result.
class jsonl_stream {
public:
    /// Opens (truncates) `path`.  Throws contract_violation when the file
    /// cannot be created.
    explicit jsonl_stream(std::string path, export_options opt = {});

    /// Destructor finalises if the caller has not (best-effort).
    ~jsonl_stream();

    jsonl_stream(const jsonl_stream&) = delete;
    jsonl_stream& operator=(const jsonl_stream&) = delete;

    /// Append one completed scenario (thread-safe; line is flushed).
    void append(const scenario_result& r);

    /// Restore grid order on disk and close the file.  Rewrites through a
    /// temp file + rename, so a failure (disk full, path removed) leaves
    /// the completion-order artefact intact for salvage.  Idempotent.
    void finalise();

    /// Finalise and append the campaign summary row (summary_json of
    /// `result` under this stream's options).  Byte-identical on disk to
    /// scenarios_jsonl(result, opt) with `opt.jsonl_summary = true`.
    void finalise(const campaign_result& result);

    /// Rows appended so far.
    [[nodiscard]] std::size_t rows() const;

private:
    /// Where one appended row landed in the completion-order file.  Only
    /// coordinates are retained in memory — finalise() re-reads the row
    /// bytes from disk, so the sink's footprint stays O(rows), not
    /// O(artefact), on the long grids it exists for.
    struct row_ref {
        std::size_t grid_index;
        std::size_t offset;
        std::size_t length;
    };

    void finalise_locked(const std::string* summary_row);

    mutable std::mutex mutex_;
    std::string path_;
    export_options opt_;
    std::ofstream out_;
    std::vector<row_ref> rows_;
    std::size_t bytes_written_ = 0;
    bool finalised_ = false;
};

// ---------------------------------------------------------------------------
// Minimal JSON document model + parser, sufficient for everything the
// exporter emits (objects, arrays, strings, finite numbers, bools, null).
// Exists so tests and downstream tools can round-trip campaign artefacts
// without an external dependency.
// ---------------------------------------------------------------------------

class json_value {
public:
    using array = std::vector<json_value>;
    using object = std::map<std::string, json_value>;

    json_value() = default;
    json_value(std::nullptr_t) {}
    json_value(bool b) : v_(b) {}
    json_value(double d) : v_(d) {}
    json_value(std::string s) : v_(std::move(s)) {}
    json_value(array a) : v_(std::move(a)) {}
    json_value(object o) : v_(std::move(o)) {}

    [[nodiscard]] bool is_null() const {
        return std::holds_alternative<std::nullptr_t>(v_);
    }
    [[nodiscard]] bool is_bool() const {
        return std::holds_alternative<bool>(v_);
    }
    [[nodiscard]] bool is_number() const {
        return std::holds_alternative<double>(v_);
    }
    [[nodiscard]] bool is_string() const {
        return std::holds_alternative<std::string>(v_);
    }
    [[nodiscard]] bool is_array() const {
        return std::holds_alternative<array>(v_);
    }
    [[nodiscard]] bool is_object() const {
        return std::holds_alternative<object>(v_);
    }

    /// Typed accessors; throw contract_violation on kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const array& as_array() const;
    [[nodiscard]] const object& as_object() const;

    /// The decode half of the writer's number rules — the one checked
    /// path every integer read from disk or the wire goes through.  Each
    /// throws contract_violation on anything outside its accepted range,
    /// never an out-of-range conversion:
    ///  * as_number_or_nan: any number; `null` (how json_number writes
    ///    NaN and ±inf) reads back as quiet NaN.
    ///  * as_size: a number that is finite, integral and in [0, 2^53] —
    ///    what json_object_writer::size_field writes (a JSON number
    ///    carries 53 bits exactly).
    ///  * as_u64: a string of decimal digits only — no sign, whitespace,
    ///    trailing characters or value above 2^64 - 1 — how 64-bit values
    ///    (seeds, nanosecond totals) travel.
    [[nodiscard]] double as_number_or_nan() const;
    [[nodiscard]] std::size_t as_size() const;
    [[nodiscard]] std::uint64_t as_u64() const;

    /// Object member access; throws contract_violation when missing.
    [[nodiscard]] const json_value& at(const std::string& key) const;
    /// Array element access; throws contract_violation when out of range.
    [[nodiscard]] const json_value& at(std::size_t i) const;
    [[nodiscard]] std::size_t size() const;

private:
    std::variant<std::nullptr_t, bool, double, std::string, array, object>
        v_ = nullptr;
};

/// Deepest array/object nesting parse_json accepts.  Every document this
/// library writes nests under ten levels; the cap keeps hostile input
/// (a frame or file of `[[[[...`) from exhausting the parser's stack.
inline constexpr std::size_t json_max_depth = 128;

/// Parse a JSON document.  Throws contract_violation on malformed input,
/// including nesting deeper than json_max_depth.
json_value parse_json(const std::string& text);

/// Render a string as a quoted JSON string literal (RFC 8259 escaping).
/// Shared by the exporters and the bench BENCH_JSON writer.
std::string json_quote(const std::string& s);

/// Render a double as a JSON number: shortest form that round-trips to the
/// same double; `null` for non-finite values (JSON has no nan/inf).
std::string json_number(double v);

/// Parse CSV text (RFC-4180-style quoting) into rows of cells.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

/// Emits one JSON object with caller-controlled field order (std::map
/// would sort keys; exports fix their own order).  Shared by the campaign
/// exporters and the result-cache serialiser.
class json_object_writer {
public:
    void field(const std::string& key, const std::string& raw_value) {
        if (!first_)
            body_ += ',';
        first_ = false;
        body_ += json_quote(key);
        body_ += ':';
        body_ += raw_value;
    }
    void string_field(const std::string& key, const std::string& value) {
        field(key, json_quote(value));
    }
    void number_field(const std::string& key, double value) {
        field(key, json_number(value));
    }
    void size_field(const std::string& key, std::size_t value) {
        field(key, std::to_string(value));
    }
    void bool_field(const std::string& key, bool value) {
        field(key, value ? "true" : "false");
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
    bool first_ = true;
};

} // namespace sdrbist::campaign
