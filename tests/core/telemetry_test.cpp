// Telemetry layer: off-by-default probes, counter/aggregate exactness,
// summary arithmetic (merge/window), and Chrome trace-event export
// well-formedness.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "campaign/export.hpp"
#include "core/telemetry.hpp"

namespace {

using namespace sdrbist;
namespace tm = sdrbist::telemetry;

/// Every test starts from zeroed, disabled telemetry and leaves it that
/// way (the state is process-global).
class Telemetry : public ::testing::Test {
protected:
    void SetUp() override {
        tm::disable();
        tm::reset();
    }
    void TearDown() override {
        tm::disable();
        tm::reset();
    }
};

TEST_F(Telemetry, OffByDefaultProbesAreInert) {
    EXPECT_FALSE(tm::active());
    EXPECT_FALSE(tm::tracing());
    {
        const tm::scoped_span span(tm::category::cache, "noop");
        tm::count(tm::counter::cache_hits);
        tm::count_max(tm::counter::sched_queue_high_water, 42);
    }
    for (const auto v : tm::counters())
        EXPECT_EQ(v, 0u);
    EXPECT_TRUE(tm::snapshot().empty());
    EXPECT_EQ(tm::trace_event_count(), 0u);
}

TEST_F(Telemetry, CountersAccumulateAndReset) {
    tm::enable();
    EXPECT_TRUE(tm::active());
    EXPECT_FALSE(tm::tracing());

    tm::count(tm::counter::cache_hits);
    tm::count(tm::counter::cache_hits, 2);
    tm::count(tm::counter::stage_adopts, 7);
    tm::count_max(tm::counter::sched_queue_high_water, 5);
    tm::count_max(tm::counter::sched_queue_high_water, 3); // below: no-op

    const auto counts = tm::counters();
    EXPECT_EQ(counts[static_cast<std::size_t>(tm::counter::cache_hits)], 3u);
    EXPECT_EQ(counts[static_cast<std::size_t>(tm::counter::stage_adopts)],
              7u);
    EXPECT_EQ(counts[static_cast<std::size_t>(
                  tm::counter::sched_queue_high_water)],
              5u);

    tm::reset();
    for (const auto v : tm::counters())
        EXPECT_EQ(v, 0u);
}

TEST_F(Telemetry, SpansFoldIntoCategoryAggregates) {
    tm::enable();
    for (int i = 0; i < 3; ++i) {
        const tm::scoped_span span(tm::category::cache, "load");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const auto s = tm::snapshot();
    const auto& cache = s.of(tm::category::cache);
    EXPECT_EQ(cache.count, 3u);
    EXPECT_GT(cache.total_ns, 0u);
    EXPECT_GE(cache.total_ns, cache.max_ns);
    EXPECT_DOUBLE_EQ(cache.mean_ns(),
                     static_cast<double>(cache.total_ns) / 3.0);
    EXPECT_EQ(s.of(tm::category::shard).count, 0u);
    EXPECT_FALSE(s.empty());
}

TEST_F(Telemetry, IdleSpansFeedThePoolIdleCounter) {
    tm::enable();
    {
        const tm::scoped_span idle(tm::category::idle, "sched.idle");
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    const auto s = tm::snapshot();
    EXPECT_EQ(
        tm::counters()[static_cast<std::size_t>(tm::counter::sched_idle_ns)],
        s.of(tm::category::idle).total_ns);
    EXPECT_GT(s.of(tm::category::idle).total_ns, 0u);
}

TEST_F(Telemetry, SummaryMergeAndWindowArithmetic) {
    tm::summary a;
    a.categories[0] = {2, 100, 80};
    a.categories[5] = {1, 50, 50};
    tm::summary b;
    b.categories[0] = {3, 40, 90};
    a.merge_from(b);
    EXPECT_EQ(a.categories[0].count, 5u);
    EXPECT_EQ(a.categories[0].total_ns, 140u);
    EXPECT_EQ(a.categories[0].max_ns, 90u); // max of maxima, not a sum
    EXPECT_EQ(a.categories[5].count, 1u);

    tm::enable();
    { const tm::scoped_span span(tm::category::shard, "one"); }
    const auto base = tm::snapshot();
    { const tm::scoped_span span(tm::category::shard, "two"); }
    { const tm::scoped_span span(tm::category::shard, "three"); }
    const auto window = tm::since(base);
    EXPECT_EQ(window.of(tm::category::shard).count, 2u);
    EXPECT_EQ(tm::snapshot().of(tm::category::shard).count, 3u);
}

TEST_F(Telemetry, ConcurrentCountsAreExact) {
    tm::enable();
    constexpr int threads = 8;
    constexpr int per_thread = 10000;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < per_thread; ++i) {
                tm::count(tm::counter::sched_tasks);
                const tm::scoped_span span(tm::category::worker, "work");
            }
        });
    for (auto& w : workers)
        w.join();
    EXPECT_EQ(tm::counters()[static_cast<std::size_t>(tm::counter::sched_tasks)],
              static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_EQ(tm::snapshot().of(tm::category::worker).count,
              static_cast<std::uint64_t>(threads) * per_thread);
}

TEST_F(Telemetry, ChromeTraceExportIsWellFormed) {
    tm::enable(/*capture_trace=*/true);
    EXPECT_TRUE(tm::tracing());
    tm::set_thread_name("main-test-thread");
    {
        const tm::scoped_span outer(tm::category::scenario, "scenario", 7);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        {
            const tm::scoped_span inner(tm::category::cache, "store.load");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
    EXPECT_EQ(tm::trace_event_count(), 2u);

    const std::string json =
        tm::chrome_trace_json({{"compiler", "test-cc"}});
    const auto doc = campaign::parse_json(json);
    EXPECT_EQ(doc.at("otherData").at("compiler").as_string(), "test-cc");
    EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

    const auto& events = doc.at("traceEvents").as_array();
    std::size_t x_events = 0;
    bool saw_thread_name = false;
    double last_ts = -1.0;
    for (const auto& e : events) {
        const auto& ph = e.at("ph").as_string();
        if (ph == "M") {
            if (e.at("name").as_string() == "thread_name")
                saw_thread_name |= e.at("args").at("name").as_string() ==
                                   "main-test-thread";
            continue;
        }
        ASSERT_EQ(ph, "X");
        ++x_events;
        EXPECT_GE(e.at("ts").as_number(), last_ts) << "ts must be sorted";
        last_ts = e.at("ts").as_number();
        EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
    EXPECT_EQ(x_events, 2u);
    EXPECT_TRUE(saw_thread_name);

    // The nested span must lie inside its parent, and the span arg must
    // survive into args.arg.
    const campaign::json_value* outer = nullptr;
    const campaign::json_value* inner = nullptr;
    for (const auto& e : events) {
        if (e.at("ph").as_string() != "X")
            continue;
        if (e.at("name").as_string() == "scenario")
            outer = &e;
        else if (e.at("name").as_string() == "store.load")
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->at("args").at("arg").as_number(), 7.0);
    EXPECT_LE(outer->at("ts").as_number(), inner->at("ts").as_number());
    EXPECT_GE(outer->at("ts").as_number() + outer->at("dur").as_number(),
              inner->at("ts").as_number() + inner->at("dur").as_number());
    EXPECT_EQ(outer->at("tid").as_number(), inner->at("tid").as_number());
}

} // namespace
