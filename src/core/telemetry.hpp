/// \file telemetry.hpp
/// \brief Cross-layer telemetry: scoped trace spans, monotonic counters,
///        per-category aggregates and a Chrome trace-event export.
///
/// The five-stage BIST pipeline, the campaign stage pool, the artefact
/// store and the task scheduler all do their work behind abstraction
/// boundaries that make wall-time invisible from the outside.  This layer
/// makes them observable without perturbing them:
///
///  * `scoped_span` — an RAII timer.  On destruction it folds its duration
///    into the per-category aggregate (count/total/max ns) and, when
///    tracing, appends one event (name, category, thread, start, duration)
///    to a per-thread buffer.  Nested spans on one thread nest in the
///    trace, which is what chrome://tracing / Perfetto render as a flame
///    graph.
///  * `count()` / `count_max()` — named monotonic counters (cache hits,
///    stage-pool adopts, scheduler queue high-water, ...).
///  * Sinks: `snapshot()`/`since()` return the aggregate summary (the
///    campaign runner attaches a per-run window of it to
///    `campaign_result`, and `merge_results` sums it across shards);
///    `chrome_trace_json()` renders every buffered event as a Chrome
///    trace-event JSON document (`campaign_runner --trace-out`).
///
/// Contracts:
///  * **Off by default, near-zero overhead off.**  Every probe guards on
///    one relaxed atomic load; a `scoped_span` constructed while telemetry
///    is disabled never reads the clock.
///  * **Never perturbs results.**  Probes only read the steady clock and
///    bump atomics — reports are bit-identical with telemetry on or off,
///    at any thread count (locked down by tests/campaign).
///  * **Deterministic aggregation.**  `summary::merge_from` is the
///    additive combine `merge_results()` uses: counts and totals sum,
///    maxima take the max — sharded runs observe like unsharded ones.
///
/// Thread safety: everything here may be called concurrently.  Trace
/// buffers are thread-local (registered globally so they outlive their
/// thread); aggregates and counters are relaxed atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sdrbist::telemetry {

/// Span categories: one aggregate slot and one Chrome-trace `cat` each.
/// The five pipeline stages come first, in `bist::stage` order, so
/// `category(stage_index(s))` is the stage's category.
enum class category : int {
    stage_stimulus = 0,    ///< pipeline stage 0 (bist/pipeline.cpp)
    stage_tx_capture,      ///< pipeline stage 1
    stage_calibration,     ///< pipeline stage 2
    stage_reconstruction,  ///< pipeline stage 3
    stage_grading,         ///< pipeline stage 4
    campaign,              ///< campaign plan/run (campaign/campaign.cpp)
    scenario,              ///< one grid scenario, end to end
    cache,                 ///< store entry load/store, stage and scenario
                           ///< kinds (campaign/artefact_store/)
    shard,                 ///< shard file read/write/merge (shard_io.cpp)
    worker,                ///< scheduler task execution (task_scheduler.cpp)
    idle,                  ///< scheduler workers waiting for work
};
inline constexpr std::size_t category_count = 11;

/// Stable export name ("stage.stimulus", "cache", ...).
const char* to_string(category c);

/// Monotonic counters.  All process-wide; reset() zeroes them.
enum class counter : int {
    cache_hits = 0,       ///< scenario-cache hits (campaign run)
    cache_misses,         ///< scenario-cache misses (cache configured)
    stage_adopts,         ///< pooled stage results adopted (== reuse hits)
    stage_computes,       ///< pooled stage results computed once
    sched_tasks,          ///< scheduler tasks executed
    sched_idle_ns,        ///< summed worker idle time (ns)
    sched_queue_high_water, ///< deepest ready-task backlog (max, not sum)
    simd_dispatches,      ///< kernel_backend::select() table dispatches
    scenario_retries,     ///< scenario attempts re-run after a transient
                          ///< failure (campaign retry loop)
    scenario_failures,    ///< scenario attempts that ended in an error
    scenario_gave_up,     ///< scenarios still failing after every retry
    sched_spawns,         ///< DAG nodes released by a completed dependency
                          ///< (deterministic: nodes minus roots)
    sched_steals,         ///< tasks stolen from another worker's deque
                          ///< (nondeterministic; 0 single-threaded)
    service_leases,       ///< campaign-service lease grants (incl. re-grants
                          ///< of re-queued leases)
    service_requeues,     ///< leases re-queued after a lapsed heartbeat or a
                          ///< dead worker connection
    service_heartbeats,   ///< heartbeat frames accepted on a live lease
    store_hits,           ///< stage-artefact store entries adopted
    store_misses,         ///< stage-artefact store lookups that missed
    store_evictions,      ///< entries evicted by store GC (cache-gc)
    store_bytes,          ///< raw (uncompressed) bytes served by store
                          ///< hits (summed, not a count)
};
inline constexpr std::size_t counter_count = 20;

/// Stable export name ("cache.hits", "sched.queue_high_water", ...).
const char* to_string(counter c);

namespace detail {

/// Enable mask: bit 0 = collect (counters + aggregates), bit 1 = trace
/// (buffer events too).  One relaxed load of this word is the whole cost
/// of a probe while telemetry is off.
inline constexpr unsigned mode_collect = 1u;
inline constexpr unsigned mode_trace = 2u;
inline std::atomic<unsigned> g_mode{0};

/// Steady-clock now in nanoseconds.
std::int64_t now_ns();

/// Fold one finished span into the aggregates (and the trace buffer when
/// tracing).  `arg` is an optional user payload (`span_no_arg` = none).
void record_span(category cat, const char* name, std::uint64_t arg,
                 std::int64_t start_ns);

inline constexpr std::uint64_t span_no_arg = ~std::uint64_t{0};

} // namespace detail

/// True when telemetry is collecting (counters and aggregates).
inline bool active() {
    return (detail::g_mode.load(std::memory_order_relaxed) &
            detail::mode_collect) != 0;
}

/// True when trace events are being buffered as well.
inline bool tracing() {
    return (detail::g_mode.load(std::memory_order_relaxed) &
            detail::mode_trace) != 0;
}

/// Start collecting; with `capture_trace` also buffer trace events.
void enable(bool capture_trace = false);

/// Stop collecting (buffers and aggregates are kept for export).
void disable();

/// Zero every counter and aggregate and drop all buffered trace events.
/// Also restarts the trace epoch (timestamps are relative to it).
void reset();

/// Bump a counter by `add`.  No-op while telemetry is off.
void count(counter c, std::uint64_t add = 1);

/// Raise a high-water-mark counter to at least `value`.  No-op while off.
void count_max(counter c, std::uint64_t value);

/// Snapshot of every counter, indexed by `counter`.
std::array<std::uint64_t, counter_count> counters();

/// Aggregate of one category's spans.
struct category_stats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;

    [[nodiscard]] double mean_ns() const {
        return count == 0 ? 0.0
                          : static_cast<double>(total_ns) /
                                static_cast<double>(count);
    }
    bool operator==(const category_stats&) const = default;
};

/// Per-category aggregate summary — the sink `campaign_result` carries.
struct summary {
    std::array<category_stats, category_count> categories{};

    [[nodiscard]] const category_stats& of(category c) const {
        return categories[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] bool empty() const {
        for (const auto& s : categories)
            if (s.count != 0)
                return false;
        return true;
    }
    /// Additive combine (counts/totals sum, max of maxima) — the shard
    /// merge operation.  Deterministic and associative/commutative.
    void merge_from(const summary& other) {
        for (std::size_t i = 0; i < category_count; ++i) {
            categories[i].count += other.categories[i].count;
            categories[i].total_ns += other.categories[i].total_ns;
            if (other.categories[i].max_ns > categories[i].max_ns)
                categories[i].max_ns = other.categories[i].max_ns;
        }
    }
    bool operator==(const summary&) const = default;
};

/// Current aggregate state since enable()/reset().
summary snapshot();

/// Windowed summary: counts and totals since `baseline` (a prior
/// snapshot()).  `max_ns` cannot be windowed and is carried as the current
/// maximum since enable()/reset().
summary since(const summary& baseline);

/// RAII trace span.  Constructing while telemetry is off costs one
/// relaxed atomic load and arms nothing.
class scoped_span {
public:
    explicit scoped_span(category cat, const char* name,
                         std::uint64_t arg = detail::span_no_arg) noexcept {
        if ((detail::g_mode.load(std::memory_order_relaxed) &
             detail::mode_collect) == 0)
            return;
        cat_ = cat;
        name_ = name;
        arg_ = arg;
        start_ns_ = detail::now_ns();
        armed_ = true;
    }
    ~scoped_span() {
        if (armed_)
            detail::record_span(cat_, name_, arg_, start_ns_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    category cat_{};
    const char* name_ = nullptr;
    std::uint64_t arg_ = 0;
    std::int64_t start_ns_ = 0;
    bool armed_ = false;
};

/// Label the calling thread in trace exports (Chrome `thread_name`
/// metadata).  No-op while telemetry is off.
void set_thread_name(const std::string& name);

/// Trace events buffered so far, across all threads.
std::size_t trace_event_count();

/// Render every buffered trace event as a Chrome trace-event JSON document
/// (the object form: `{"otherData":{...},"traceEvents":[...]}`), loadable
/// in chrome://tracing or https://ui.perfetto.dev.  Events are sorted by
/// start time; timestamps are microseconds since the trace epoch.
/// `metadata` key/value pairs land in `otherData` (build provenance).
std::string chrome_trace_json(
    const std::vector<std::pair<std::string, std::string>>& metadata = {});

/// Write chrome_trace_json() to `path`.  False when the file cannot be
/// written.
[[nodiscard]] bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata = {});

} // namespace sdrbist::telemetry
