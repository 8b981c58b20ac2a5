#include "spans.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "campaign/export.hpp"

namespace bench {

namespace {

/// Spans open on this thread, innermost last (the parent of a new span).
thread_local std::vector<std::size_t> t_open;

double timeval_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

} // namespace

double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

span_recorder::scope::scope(span_recorder* rec, const char* name,
                            std::uint64_t request)
    : rec_(rec) {
    if (rec_)
        id_ = rec_->open(name, request);
}

span_recorder::scope::~scope() {
    if (rec_)
        rec_->close(id_);
}

std::int64_t span_recorder::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                                epoch_)
        .count();
}

std::size_t span_recorder::open(const char* name, std::uint64_t request) {
    const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::size_t parent = t_open.empty() ? none : t_open.back();
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = threads_.emplace(
        tid, static_cast<std::uint32_t>(threads_.size() + 1));
    event e;
    e.name = name;
    e.parent = parent;
    e.thread = it->second;
    e.request = request;
    e.start_ns = now_ns();
    events_.push_back(std::move(e));
    t_open.push_back(events_.size() - 1);
    return events_.size() - 1;
}

void span_recorder::close(std::size_t id) {
    const std::int64_t end = now_ns();
    if (!t_open.empty() && t_open.back() == id)
        t_open.pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    events_[id].end_ns = end;
}

std::map<std::string, double> span_recorder::total_ns() const {
    std::map<std::string, double> out;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const event& e : events_)
        if (e.end_ns >= 0)
            out[e.name] += static_cast<double>(e.end_ns - e.start_ns);
    return out;
}

std::string span_recorder::chrome_trace_json(
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
    using sdrbist::campaign::json_quote;
    std::vector<event> events;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        events = events_;
    }
    // Parents are indices into the recording order; sort a copy of the
    // order so each event can still name its parent's span.
    std::vector<std::size_t> order(events.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return events[a].start_ns < events[b].start_ns;
                     });
    std::string out = "{\"otherData\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
        if (i)
            out += ',';
        out += json_quote(metadata[i].first) + ':' +
               json_quote(metadata[i].second);
    }
    out += "},\"traceEvents\":[";
    char buf[96];
    bool first = true;
    for (const std::size_t i : order) {
        const event& e = events[i];
        if (e.end_ns < 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        const auto dot = e.name.find('.');
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                      1e-3 * static_cast<double>(e.start_ns),
                      1e-3 * static_cast<double>(e.end_ns - e.start_ns),
                      e.thread);
        out += "{\"name\":" + json_quote(e.name) +
               ",\"cat\":" + json_quote(e.name.substr(0, dot)) +
               ",\"ph\":\"X\",\"ts\":" + buf + ",\"args\":{\"request\":" +
               std::to_string(e.request) + ",\"parent\":" +
               (e.parent == none ? std::string("null")
                                 : json_quote(events[e.parent].name)) +
               "}}";
    }
    out += "]}\n";
    return out;
}

} // namespace bench
