// Telemetry against the campaign contracts: tracing must never perturb
// results (bit-identical artefacts at any thread count), counters must
// mirror the deterministic stage-reuse and cache accounting exactly, the
// per-run summary must merge additively across shards, and the exported
// Chrome trace must be well-formed (valid JSON, sorted timestamps,
// properly nested spans per thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/shard_io.hpp"
#include "core/telemetry.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
namespace tm = sdrbist::telemetry;

/// Telemetry state is process-global: every test starts disabled/zeroed
/// and restores that on exit so the other campaign tests stay untouched.
class CampaignTelemetry : public ::testing::Test {
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

using sdrbist::testing::scratch_dir;

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.seed = 0x7E1Eull;
    return cfg;
}

std::string timing_free(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

std::uint64_t counter_at(const std::array<std::uint64_t, tm::counter_count>& c,
                         tm::counter which) {
    return c[static_cast<std::size_t>(which)];
}

// ---- results are never perturbed -------------------------------------------

TEST_F(CampaignTelemetry, TracedRunsAreBitIdenticalAtAnyThreadCount) {
    auto cfg = small_campaign();
    const auto baseline = campaign_runner(cfg).run();
    ASSERT_TRUE(baseline.telemetry_summary.empty()) << "telemetry was off";

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(threads);
        cfg.threads = threads;
        tm::reset();
        tm::enable(/*capture_trace=*/true);
        const auto traced = campaign_runner(cfg).run();
        tm::disable();

        EXPECT_EQ(timing_free(traced), timing_free(baseline));
        ASSERT_EQ(traced.results.size(), baseline.results.size());
        for (std::size_t i = 0; i < traced.results.size(); ++i)
            EXPECT_EQ(report_json(traced.results[i].report),
                      report_json(baseline.results[i].report))
                << "scenario " << i;
        EXPECT_FALSE(traced.telemetry_summary.empty());
        EXPECT_EQ(traced.telemetry_summary.of(tm::category::scenario).count,
                  traced.scenario_count());
    }
}

// ---- counters mirror the deterministic accounting ---------------------------

TEST_F(CampaignTelemetry, StageReuseCountersMatchTheResultExactly) {
    // Probes-reseed grid with pooling: the planned adopt/compute split is
    // deterministic, and the telemetry counters are bumped at the same
    // sites as the campaign_result fields.
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 3;
    cfg.reseed = reseed_policy::probes;
    cfg.threads = 2;

    tm::enable();
    const auto before = tm::counters();
    const auto result = campaign_runner(cfg).run();
    const auto after = tm::counters();

    EXPECT_GT(result.stage_reuse_hits, 0u);
    EXPECT_EQ(counter_at(after, tm::counter::stage_adopts) -
                  counter_at(before, tm::counter::stage_adopts),
              result.stage_reuse_hits);
    EXPECT_EQ(counter_at(after, tm::counter::stage_computes) -
                  counter_at(before, tm::counter::stage_computes),
              result.stage_reuse_computes);
}

TEST_F(CampaignTelemetry, StageAccountingIsUnchangedByThreadCount) {
    // The credited-consumer rule books the same adopt/compute split at
    // any thread count — in the result fields and the counters alike.
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 3;
    cfg.reseed = reseed_policy::probes;

    std::vector<campaign_result> results;
    tm::enable();
    for (const std::size_t threads : {1u, 2u, 4u}) {
        cfg.threads = threads;
        const auto before = tm::counters();
        results.push_back(campaign_runner(cfg).run());
        const auto after = tm::counters();
        const auto& r = results.back();
        EXPECT_EQ(counter_at(after, tm::counter::stage_adopts) -
                      counter_at(before, tm::counter::stage_adopts),
                  r.stage_reuse_hits);
        EXPECT_EQ(counter_at(after, tm::counter::stage_computes) -
                      counter_at(before, tm::counter::stage_computes),
                  r.stage_reuse_computes);
    }
    const auto& single = results.front();
    EXPECT_GT(single.stage_reuse_hits, 0u);
    for (const auto& r : results) {
        EXPECT_EQ(r.stage_reuse_hits, single.stage_reuse_hits);
        EXPECT_EQ(r.stage_reuse_computes, single.stage_reuse_computes);
        EXPECT_EQ(timing_free(r), timing_free(single));
    }
}

TEST_F(CampaignTelemetry, SchedCountersAreExactUnderConcurrency) {
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 3;
    cfg.reseed = reseed_policy::probes;
    cfg.threads = 4;

    const auto run_deltas = [&cfg] {
        const auto before = tm::counters();
        const auto result = campaign_runner(cfg).run();
        const auto after = tm::counters();
        std::array<std::uint64_t, tm::counter_count> delta{};
        for (std::size_t i = 0; i < tm::counter_count; ++i)
            delta[i] = after[i] - before[i];
        return std::pair{delta, result};
    };

    tm::enable();
    const auto [first, result] = run_deltas();
    // Spawns are deterministic (nodes minus roots), so an identical run
    // books the identical count even under concurrency.
    const auto [second, result2] = run_deltas();
    EXPECT_GT(counter_at(first, tm::counter::sched_spawns), 0u);
    EXPECT_EQ(counter_at(first, tm::counter::sched_spawns),
              counter_at(second, tm::counter::sched_spawns));
    EXPECT_EQ(timing_free(result2), timing_free(result));

    // Single-threaded there is nobody to steal from.
    cfg.threads = 1;
    const auto [single, result3] = run_deltas();
    static_cast<void>(result3);
    EXPECT_EQ(counter_at(single, tm::counter::sched_steals), 0u);
}

TEST_F(CampaignTelemetry, WarmCacheDoesNoStageWork) {
    // On a warm cache the plan pass serves every row before the pool
    // is planned, so nothing is pooled: all stage work (and its counters)
    // stays at zero.
    const scratch_dir dir("sched_warm_owners");
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 3;
    cfg.reseed = reseed_policy::probes;
    cfg.cache_dir = dir.path.string();
    cfg.threads = 4;

    const auto cold = campaign_runner(cfg).run();
    EXPECT_GT(cold.stage_reuse_computes, 0u);

    tm::enable();
    const auto before = tm::counters();
    const auto warm = campaign_runner(cfg).run();
    const auto after = tm::counters();
    EXPECT_EQ(warm.cache_hits, warm.scenario_count());
    EXPECT_EQ(warm.stage_reuse_computes, 0u);
    EXPECT_EQ(warm.stage_reuse_hits, 0u);
    EXPECT_EQ(counter_at(after, tm::counter::stage_computes) -
                  counter_at(before, tm::counter::stage_computes),
              0u);
}

TEST_F(CampaignTelemetry, CacheCountersMatchTheResultExactly) {
    const scratch_dir dir("cache_counters");
    auto cfg = small_campaign();
    cfg.cache_dir = dir.path.string();

    tm::enable();
    const auto before = tm::counters();
    const auto cold = campaign_runner(cfg).run();
    const auto mid = tm::counters();
    const auto warm = campaign_runner(cfg).run();
    const auto after = tm::counters();

    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(cold.cache_misses, cold.scenario_count());
    EXPECT_EQ(counter_at(mid, tm::counter::cache_misses) -
                  counter_at(before, tm::counter::cache_misses),
              cold.cache_misses);
    EXPECT_EQ(counter_at(mid, tm::counter::cache_hits) -
                  counter_at(before, tm::counter::cache_hits),
              cold.cache_hits);

    EXPECT_EQ(warm.cache_hits, warm.scenario_count());
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(counter_at(after, tm::counter::cache_hits) -
                  counter_at(mid, tm::counter::cache_hits),
              warm.cache_hits);
    EXPECT_EQ(counter_at(after, tm::counter::cache_misses) -
                  counter_at(mid, tm::counter::cache_misses),
              warm.cache_misses);
}

TEST_F(CampaignTelemetry, CacheOffRunCountsNoMisses) {
    // Without a cache there is no lookup to miss: the result and the
    // counter both stay at zero.
    auto cfg = small_campaign();
    ASSERT_TRUE(cfg.cache_dir.empty());

    tm::enable();
    const auto before = tm::counters();
    const auto result = campaign_runner(cfg).run();
    const auto after = tm::counters();

    EXPECT_EQ(result.cache_hits, 0u);
    EXPECT_EQ(result.cache_misses, 0u);
    EXPECT_EQ(counter_at(after, tm::counter::cache_misses) -
                  counter_at(before, tm::counter::cache_misses),
              0u);
    EXPECT_EQ(counter_at(after, tm::counter::cache_hits) -
                  counter_at(before, tm::counter::cache_hits),
              0u);
}

// ---- summaries merge additively across shards -------------------------------

TEST_F(CampaignTelemetry, ShardSummariesMergeAdditively) {
    // Four distinct presets, golden, one trial: no two scenarios share a
    // stage, so every scenario runs all five.
    auto cfg = small_campaign();
    cfg.presets.clear();
    for (const char* name :
         {"paper-qpsk-10M", "tactical-bpsk-2M", "psk8-5M", "qam16-10M"})
        cfg.presets.push_back(waveform::find_preset(name));
    cfg.faults = {bist::fault_kind::none};

    tm::enable();
    const auto full = campaign_runner(cfg).run();

    cfg.shard = {0, 2};
    const auto s0 = campaign_runner(cfg).run();
    cfg.shard = {1, 2};
    const auto s1 = campaign_runner(cfg).run();
    const auto merged = merge_results({s0, s1});

    // Span *counts* are deterministic (the grid decides what runs); totals
    // are measured, so only their additivity is checked.
    for (std::size_t i = 0; i < tm::category_count; ++i) {
        SCOPED_TRACE(tm::to_string(static_cast<tm::category>(i)));
        const auto& m = merged.telemetry_summary.categories[i];
        const auto& a = s0.telemetry_summary.categories[i];
        const auto& b = s1.telemetry_summary.categories[i];
        EXPECT_EQ(m.count, a.count + b.count);
        EXPECT_EQ(m.total_ns, a.total_ns + b.total_ns);
        EXPECT_EQ(m.max_ns, std::max(a.max_ns, b.max_ns));
    }
    for (const auto cat :
         {tm::category::stage_stimulus, tm::category::stage_tx_capture,
          tm::category::stage_calibration, tm::category::stage_reconstruction,
          tm::category::stage_grading, tm::category::scenario})
        EXPECT_EQ(merged.telemetry_summary.of(cat).count,
                  full.telemetry_summary.of(cat).count)
            << tm::to_string(cat);
}

TEST_F(CampaignTelemetry, ShardFilesRoundTripTheSummary) {
    auto cfg = small_campaign();
    tm::enable();
    const auto result = campaign_runner(cfg).run();
    ASSERT_FALSE(result.telemetry_summary.empty());

    const std::string serialised = result_to_json(result);
    const auto reread = result_from_json(parse_json(serialised));
    EXPECT_EQ(reread.telemetry_summary, result.telemetry_summary);
    EXPECT_EQ(result_to_json(reread), serialised)
        << "write(read(x)) must be byte-identical to write(x)";
}

// ---- trace export well-formedness -------------------------------------------

TEST_F(CampaignTelemetry, TraceIsValidSortedAndBalanced) {
    auto cfg = small_campaign();
    cfg.trials = 2;
    cfg.threads = 4;

    tm::enable(/*capture_trace=*/true);
    const auto result = campaign_runner(cfg).run();
    tm::disable();
    ASSERT_GT(tm::trace_event_count(), 0u);

    const auto doc = parse_json(tm::chrome_trace_json());
    const auto& events = doc.at("traceEvents").as_array();

    struct span_ref {
        double tid, ts, end;
    };
    std::vector<span_ref> spans;
    double last_ts = -1.0;
    for (const auto& e : events) {
        if (e.at("ph").as_string() == "M")
            continue;
        ASSERT_EQ(e.at("ph").as_string(), "X");
        const double ts = e.at("ts").as_number();
        const double dur = e.at("dur").as_number();
        EXPECT_GE(ts, 0.0) << "timestamps are relative to the trace epoch";
        EXPECT_GE(ts, last_ts) << "events must be sorted by start time";
        EXPECT_GE(dur, 0.0);
        last_ts = ts;
        spans.push_back({e.at("tid").as_number(), ts, ts + dur});
    }
    EXPECT_EQ(spans.size(), tm::trace_event_count());

    // One scenario span per grid scenario, stage spans under them.
    std::size_t scenario_spans = 0;
    for (const auto& e : events)
        if (e.at("ph").as_string() == "X" &&
            e.at("cat").as_string() == "scenario")
            ++scenario_spans;
    EXPECT_EQ(scenario_spans, result.scenario_count());

    // Per thread, spans must nest like a call stack: no partial overlap.
    // Ties on start time are ordered longest-first so a zero-gap parent
    // still precedes its child.
    std::vector<double> tids;
    for (const auto& s : spans)
        tids.push_back(s.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (const double tid : tids) {
        std::vector<span_ref> thread_spans;
        for (const auto& s : spans)
            if (s.tid == tid)
                thread_spans.push_back(s);
        std::stable_sort(thread_spans.begin(), thread_spans.end(),
                         [](const span_ref& a, const span_ref& b) {
                             return a.ts != b.ts ? a.ts < b.ts
                                                 : a.end > b.end;
                         });
        std::vector<double> stack; // open-span end times
        for (const auto& s : thread_spans) {
            while (!stack.empty() && stack.back() <= s.ts)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(s.end, stack.back())
                    << "span on tid " << tid << " escapes its parent";
            }
            stack.push_back(s.end);
        }
    }
}

} // namespace
