#include "core/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace sdrbist::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Global state: counters, per-category aggregates, per-thread trace buffers.
//
// Everything lives in function-local statics so any static-initialisation-
// order interaction with instrumented code (thread pools constructed from
// other globals) is defined.
// ---------------------------------------------------------------------------

struct atomic_stats {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
};

std::array<atomic_stats, category_count>& aggregates() {
    static std::array<atomic_stats, category_count> a;
    return a;
}

std::array<std::atomic<std::uint64_t>, counter_count>& counter_slots() {
    static std::array<std::atomic<std::uint64_t>, counter_count> c{};
    return c;
}

/// Relaxed max: CAS loop, load-first so the common already-higher case is
/// one read.
void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

/// One buffered trace event.  `name` is always a string literal at the
/// call sites, so storing the pointer is safe and allocation-free.
struct trace_event {
    const char* name;
    category cat;
    std::uint64_t arg;
    std::uint32_t tid;
    std::int64_t start_ns;
    std::int64_t dur_ns;
};

/// Per-thread event buffer.  Held by shared_ptr in the registry so the
/// events survive thread exit (pool workers die before export).
struct thread_buffer {
    std::mutex mutex; ///< guards events/name against concurrent export
    std::uint32_t tid = 0;
    std::string name;
    std::vector<trace_event> events;
};

struct buffer_registry {
    std::mutex mutex;
    std::vector<std::shared_ptr<thread_buffer>> buffers;
    std::uint32_t next_tid = 1; // 0 is reserved for the process row
};

buffer_registry& registry() {
    static buffer_registry r;
    return r;
}

thread_buffer& local_buffer() {
    thread_local std::shared_ptr<thread_buffer> buf = [] {
        auto b = std::make_shared<thread_buffer>();
        buffer_registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        b->tid = r.next_tid++;
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

/// Trace epoch: timestamps export relative to this, so traces start near
/// t=0 regardless of process uptime.  Set on first enable() and on
/// reset().
std::atomic<std::int64_t>& epoch_ns() {
    static std::atomic<std::int64_t> e{0};
    return e;
}

/// Fixed-point nanoseconds → "123.456" microseconds (3 decimals).
/// Deterministic (no double formatting) and what Chrome's `ts` expects.
std::string format_us(std::int64_t ns) {
    if (ns < 0)
        ns = 0;
    std::string out = std::to_string(ns / 1000);
    const auto frac = static_cast<unsigned>(ns % 1000);
    out += '.';
    out += static_cast<char>('0' + frac / 100);
    out += static_cast<char>('0' + (frac / 10) % 10);
    out += static_cast<char>('0' + frac % 10);
    return out;
}

/// Minimal JSON string escaping for trace names/metadata.  Local on
/// purpose: core cannot depend on the campaign exporter's json_quote.
std::string quote(const std::string& s) {
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
                const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
                out += hex[static_cast<unsigned char>(c) & 0xF];
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace

const char* to_string(category c) {
    switch (c) {
    case category::stage_stimulus: return "stage.stimulus";
    case category::stage_tx_capture: return "stage.tx-capture";
    case category::stage_calibration: return "stage.calibration";
    case category::stage_reconstruction: return "stage.reconstruction";
    case category::stage_grading: return "stage.grading";
    case category::campaign: return "campaign";
    case category::scenario: return "scenario";
    case category::cache: return "cache";
    case category::shard: return "shard";
    case category::worker: return "worker";
    case category::idle: return "idle";
    }
    return "unknown";
}

const char* to_string(counter c) {
    switch (c) {
    case counter::cache_hits: return "cache.hits";
    case counter::cache_misses: return "cache.misses";
    case counter::stage_adopts: return "stage.adopts";
    case counter::stage_computes: return "stage.computes";
    case counter::sched_tasks: return "sched.tasks";
    case counter::sched_idle_ns: return "sched.idle_ns";
    case counter::sched_queue_high_water: return "sched.queue_high_water";
    case counter::simd_dispatches: return "simd.dispatches";
    case counter::scenario_retries: return "scenario.retries";
    case counter::scenario_failures: return "scenario.failures";
    case counter::scenario_gave_up: return "scenario.gave_up";
    case counter::sched_spawns: return "sched.spawns";
    case counter::sched_steals: return "sched.steals";
    case counter::service_leases: return "service.leases";
    case counter::service_requeues: return "service.requeues";
    case counter::service_heartbeats: return "service.heartbeats";
    case counter::store_hits: return "store.hits";
    case counter::store_misses: return "store.misses";
    case counter::store_evictions: return "store.evictions";
    case counter::store_bytes: return "store.bytes";
    }
    return "unknown";
}

namespace detail {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void record_span(category cat, const char* name, std::uint64_t arg,
                 std::int64_t start_ns) {
    const std::int64_t end_ns = now_ns();
    const auto dur =
        static_cast<std::uint64_t>(end_ns > start_ns ? end_ns - start_ns : 0);

    atomic_stats& agg = aggregates()[static_cast<std::size_t>(cat)];
    agg.count.fetch_add(1, std::memory_order_relaxed);
    agg.total_ns.fetch_add(dur, std::memory_order_relaxed);
    atomic_max(agg.max_ns, dur);

    // Worker idle time doubles as a counter (the scheduler work reads it
    // without walking the summary).
    if (cat == category::idle)
        counter_slots()[static_cast<std::size_t>(counter::sched_idle_ns)]
            .fetch_add(dur, std::memory_order_relaxed);

    if ((g_mode.load(std::memory_order_relaxed) & mode_trace) == 0)
        return;
    thread_buffer& buf = local_buffer();
    const std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back({name, cat, arg, buf.tid, start_ns,
                          static_cast<std::int64_t>(dur)});
}

} // namespace detail

void enable(bool capture_trace) {
    // Epoch first: a probe that sees the mode must see the epoch too (it
    // only matters at export time, but keep the ordering obvious).
    std::int64_t expected = 0;
    epoch_ns().compare_exchange_strong(expected, detail::now_ns());
    detail::g_mode.store(detail::mode_collect |
                             (capture_trace ? detail::mode_trace : 0u),
                         std::memory_order_relaxed);
}

void disable() { detail::g_mode.store(0, std::memory_order_relaxed); }

void reset() {
    for (auto& agg : aggregates()) {
        agg.count.store(0, std::memory_order_relaxed);
        agg.total_ns.store(0, std::memory_order_relaxed);
        agg.max_ns.store(0, std::memory_order_relaxed);
    }
    for (auto& c : counter_slots())
        c.store(0, std::memory_order_relaxed);
    buffer_registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& buf : r.buffers) {
        const std::lock_guard<std::mutex> buf_lock(buf->mutex);
        buf->events.clear();
    }
    epoch_ns().store(detail::now_ns(), std::memory_order_relaxed);
}

void count(counter c, std::uint64_t add) {
    if (!active())
        return;
    counter_slots()[static_cast<std::size_t>(c)].fetch_add(
        add, std::memory_order_relaxed);
}

void count_max(counter c, std::uint64_t value) {
    if (!active())
        return;
    atomic_max(counter_slots()[static_cast<std::size_t>(c)], value);
}

std::array<std::uint64_t, counter_count> counters() {
    std::array<std::uint64_t, counter_count> out{};
    for (std::size_t i = 0; i < counter_count; ++i)
        out[i] = counter_slots()[i].load(std::memory_order_relaxed);
    return out;
}

summary snapshot() {
    summary out;
    for (std::size_t i = 0; i < category_count; ++i) {
        const atomic_stats& agg = aggregates()[i];
        out.categories[i].count = agg.count.load(std::memory_order_relaxed);
        out.categories[i].total_ns =
            agg.total_ns.load(std::memory_order_relaxed);
        out.categories[i].max_ns = agg.max_ns.load(std::memory_order_relaxed);
    }
    return out;
}

summary since(const summary& baseline) {
    summary now = snapshot();
    for (std::size_t i = 0; i < category_count; ++i) {
        now.categories[i].count -= baseline.categories[i].count;
        now.categories[i].total_ns -= baseline.categories[i].total_ns;
        // max_ns stays the running maximum: maxima are not subtractable.
    }
    return now;
}

void set_thread_name(const std::string& name) {
    if (!active())
        return;
    thread_buffer& buf = local_buffer();
    const std::lock_guard<std::mutex> lock(buf.mutex);
    buf.name = name;
}

std::size_t trace_event_count() {
    buffer_registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::size_t n = 0;
    for (const auto& buf : r.buffers) {
        const std::lock_guard<std::mutex> buf_lock(buf->mutex);
        n += buf->events.size();
    }
    return n;
}

std::string chrome_trace_json(
    const std::vector<std::pair<std::string, std::string>>& metadata) {
    // Snapshot every buffer under its lock, then render lock-free.
    std::vector<trace_event> events;
    std::vector<std::pair<std::uint32_t, std::string>> thread_names;
    {
        buffer_registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        for (const auto& buf : r.buffers) {
            const std::lock_guard<std::mutex> buf_lock(buf->mutex);
            events.insert(events.end(), buf->events.begin(),
                          buf->events.end());
            if (!buf->name.empty())
                thread_names.emplace_back(buf->tid, buf->name);
        }
    }
    const std::int64_t epoch = epoch_ns().load(std::memory_order_relaxed);
    std::sort(events.begin(), events.end(),
              [](const trace_event& a, const trace_event& b) {
                  return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                  : a.tid < b.tid;
              });
    std::sort(thread_names.begin(), thread_names.end());

    std::string out = "{\"otherData\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
        if (i)
            out += ',';
        out += quote(metadata[i].first);
        out += ':';
        out += quote(metadata[i].second);
    }
    out += "},\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"sdrbist\"}}";
    for (const auto& [tid, name] : thread_names) {
        out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":";
        out += std::to_string(tid);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
        out += quote(name);
        out += "}}";
    }
    for (const trace_event& e : events) {
        out += ",{\"name\":";
        out += quote(e.name);
        out += ",\"cat\":";
        out += quote(to_string(e.cat));
        out += ",\"ph\":\"X\",\"ts\":";
        out += format_us(e.start_ns - epoch);
        out += ",\"dur\":";
        out += format_us(e.dur_ns);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(e.tid);
        if (e.arg != detail::span_no_arg) {
            out += ",\"args\":{\"arg\":";
            out += std::to_string(e.arg);
            out += '}';
        }
        out += '}';
    }
    out += "]}";
    return out;
}

bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good())
        return false;
    out << chrome_trace_json(metadata) << '\n';
    out.flush();
    return out.good();
}

} // namespace sdrbist::telemetry
