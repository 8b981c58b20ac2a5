/// \file spans.hpp
/// \brief The benchmark's own span recorder: wall-clock spans recorded
///        around calls into the library's public functions, kept in memory
///        and written out as a Chrome trace when the run ends.
///
/// The library has its own telemetry ledger (core/telemetry.hpp), but it
/// stops at stage granularity.  These spans sit in the benchmark, around
/// the public calls a stage is made of, so per-layer time can be read
/// without a single probe inside `src/`.  A span records its parent (the
/// span open on the same thread when it started) and its request id, so
/// the trace shows which call each span served.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using steady = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_s();

/// Peak resident set of this process, in MB.
double peak_rss_mb();

class span_recorder {
public:
    /// RAII span; a no-op when the recorder is disabled.
    class scope {
    public:
        scope(span_recorder* rec, const char* name, std::uint64_t request);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        span_recorder* rec_ = nullptr;
        std::size_t id_ = 0;
    };

    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span named `name` for request `request` (spans of one
    /// request share the id in the trace).
    [[nodiscard]] scope span(const char* name, std::uint64_t request = 0) {
        return scope(enabled_ ? this : nullptr, name, request);
    }

    /// Summed duration (ns) per span name over every span recorded so far.
    [[nodiscard]] std::map<std::string, double> total_ns() const;

    /// Chrome trace-event JSON (complete "X" events, microseconds since
    /// the recorder was created); `metadata` lands in `otherData`.
    [[nodiscard]] std::string chrome_trace_json(
        const std::vector<std::pair<std::string, std::string>>& metadata)
        const;

private:
    struct event {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        std::size_t parent = none;
        std::uint32_t thread = 0;
        std::uint64_t request = 0;
    };
    static constexpr std::size_t none = ~std::size_t{0};

    std::size_t open(const char* name, std::uint64_t request);
    void close(std::size_t id);
    [[nodiscard]] std::int64_t now_ns() const;

    bool enabled_ = false;
    steady::time_point epoch_ = steady::now();
    mutable std::mutex mu_; ///< guards events_ and threads_
    std::vector<event> events_;
    std::map<std::uint64_t, std::uint32_t> threads_;
};

} // namespace bench
