// Cross-scenario stage sharing: the runner's planned stage pool must be
// invisible in the results (bit-identical to grading every row alone, at
// any thread count), deterministic in its accounting, and engaged exactly
// where digests overlap.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/fault_injection.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "support/scratch_dir.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::campaign;
namespace fi = sdrbist::fault_injection;
namespace tm = sdrbist::telemetry;
using sdrbist::testing::scratch_dir;

/// Guard-banding grid: one standard against two candidate masks,
/// Monte-Carlo over probe draws — downstream-only variation, maximal
/// upstream overlap.
campaign_config reuse_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    const auto preset = waveform::find_preset("paper-qpsk-10M");
    auto strict = preset;
    strict.name = "paper-qpsk-10M/strict";
    strict.mask = waveform::make_strict_mask(preset.stimulus.symbol_rate,
                                             preset.stimulus.rolloff);
    cfg.presets = {preset, strict};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 2;
    cfg.reseed = reseed_policy::probes;
    cfg.seed = 0x57A6E5ull;
    cfg.threads = 2;
    return cfg;
}

std::string timing_free(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

/// Telemetry and fault injection are process-global: a test that turns
/// either on restores the quiet default however it exits.
struct quiet_globals {
    quiet_globals() { reset(); }
    ~quiet_globals() { reset(); }
    static void reset() {
        tm::disable();
        tm::reset();
        fi::disarm();
    }
};

std::uint64_t counter_delta(
    const std::array<std::uint64_t, tm::counter_count>& before,
    const std::array<std::uint64_t, tm::counter_count>& after,
    tm::counter which) {
    const auto k = static_cast<std::size_t>(which);
    return after[k] - before[k];
}

/// Grade grid rows [0, 3) into `cache_dir` (and the stage store, when
/// set): the first plain-mask preset's (none, t0), (none, t1) and
/// (pa-gain-drop, t0).
void prime_first_three_rows(campaign_config cfg) {
    cfg.lease = lease_range{0, 3};
    static_cast<void>(campaign_runner(cfg).run());
}

/// The sharing-free reference: every row graded as its own one-row shard
/// (so no run has anything to pool), merged back into one result.
campaign_result merged_one_row_shards(campaign_config cfg) {
    const std::size_t rows = expand_grid(cfg).size();
    std::vector<campaign_result> shards;
    for (std::size_t k = 0; k < rows; ++k) {
        cfg.shard = {k, rows};
        shards.push_back(campaign_runner(cfg).run());
        EXPECT_EQ(shards.back().stage_reuse_hits, 0u) << "shard " << k;
        EXPECT_EQ(shards.back().stage_reuse_computes, 0u) << "shard " << k;
    }
    return merge_results(shards);
}

TEST(StageReuse, PooledRunEqualsMergedOneRowShards) {
    const auto cfg = reuse_campaign();
    const auto pooled = campaign_runner(cfg).run();
    EXPECT_GT(pooled.stage_reuse_hits, 0u);
    EXPECT_EQ(timing_free(pooled), timing_free(merged_one_row_shards(cfg)));
}

TEST(StageReuse, PoolAccountingMatchesTheDigestPlan) {
    // 2 mask-variant presets x 2 faults x 2 probe trials = 8 scenarios.
    //  - stimulus: identical everywhere          -> 1 compute, 7 adopts
    //  - tx_capture: differs only by fault       -> 2 computes, 6 adopts
    //  - calibration: fault x probe trial        -> 4 computes, 4 adopts
    //  - reconstruction: fault x probe trial     -> 4 computes, 4 adopts
    auto cfg = reuse_campaign();
    const auto result = campaign_runner(cfg).run();
    EXPECT_EQ(result.stage_reuse_computes, 1u + 2u + 4u + 4u);
    EXPECT_EQ(result.stage_reuse_hits, 7u + 6u + 4u + 4u);

    // The accounting is planned, not raced: any thread count reproduces it.
    cfg.threads = 5;
    const auto threaded = campaign_runner(cfg).run();
    EXPECT_EQ(threaded.stage_reuse_computes, result.stage_reuse_computes);
    EXPECT_EQ(threaded.stage_reuse_hits, result.stage_reuse_hits);
    EXPECT_EQ(timing_free(threaded), timing_free(result));
}

TEST(StageReuse, PartiallyWarmCachePlansOnlyUncachedRows) {
    // Rows 0-2 are cached; the pool is planned over the 5 rows the cache
    // does not serve: 3 = (plain, pa-gain-drop, t1) and 4-7 = strict x
    // {none, pa-gain-drop} x {t0, t1}.
    //  - stimulus: shared by all five                  -> 1 compute, 4 adopts
    //  - tx_capture: none {4,5}, pa-gain-drop {3,6,7}  -> 2 computes, 3 adopts
    //  - calibration: only (pa-gain-drop, t1) {3,7}    -> 1 compute, 1 adopt
    //  - reconstruction: likewise                      -> 1 compute, 1 adopt
    // (none, t0) {4}, (none, t1) {5} and (pa-gain-drop, t0) {6} have a
    // single uncached consumer each: not pooled, computed in the row.
    const quiet_globals quiet;
    auto cfg = reuse_campaign();
    const std::string cache_off = timing_free(campaign_runner(cfg).run());

    for (const std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
        SCOPED_TRACE(threads);
        const scratch_dir dir("reuse_partial_" + std::to_string(threads));
        cfg.cache_dir = dir.path.string();
        cfg.threads = threads;
        prime_first_three_rows(cfg);

        tm::enable();
        const auto before = tm::counters();
        const auto warm = campaign_runner(cfg).run();
        const auto after = tm::counters();
        tm::disable();

        EXPECT_EQ(warm.cache_hits, 3u);
        EXPECT_EQ(warm.cache_misses, 5u);
        EXPECT_EQ(timing_free(warm), cache_off);
        EXPECT_EQ(warm.stage_reuse_computes, 1u + 2u + 1u + 1u);
        EXPECT_EQ(warm.stage_reuse_hits, 4u + 3u + 1u + 1u);
        EXPECT_EQ(counter_delta(before, after, tm::counter::stage_computes),
                  warm.stage_reuse_computes);
        EXPECT_EQ(counter_delta(before, after, tm::counter::stage_adopts),
                  warm.stage_reuse_hits);
    }
}

TEST(StageReuse, LookupPhaseTransientIsRetriedByItsRow) {
    // The first store load of the run is a scenario-cache lookup; failing
    // it leaves that row to look up again inside its own retry loop, with
    // no trace in the exports.
    const quiet_globals quiet;
    auto cfg = reuse_campaign();
    const std::string fault_free = timing_free(campaign_runner(cfg).run());

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(threads);
        const scratch_dir dir("reuse_lookup_fault_" + std::to_string(threads));
        cfg.cache_dir = dir.file("cache");
        cfg.stage_store_dir = dir.file("store");
        cfg.threads = threads;
        prime_first_three_rows(cfg);

        fi::arm("store.load:throw-transient:count=1");
        const auto run = campaign_runner(cfg).run();
        fi::disarm();

        EXPECT_EQ(timing_free(run), fault_free);
        EXPECT_EQ(run.scenario_gave_up, 0u);
        EXPECT_EQ(run.cache_hits + run.cache_misses, run.scenario_count());
    }
}

TEST(StageReuse, FailedOwnerFailsEveryConsumerOnceThenRetriesPrivately) {
    // 1 preset x 3 faults x 2 probe trials: every row shares the stimulus
    // slot and each fault's two trials share a tx_capture slot.  The
    // stimulus owner node is the first arrival at the stimulus stage, so
    // the armed fault fails it; the tx_capture owners inherit that failure.
    // Every consumer rethrows it on attempt 1 and its retry computes
    // privately, adopting nothing.
    const quiet_globals quiet;
    auto cfg = reuse_campaign();
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop,
                  bist::fault_kind::iq_imbalance};
    const std::string clean = timing_free(campaign_runner(cfg).run());

    fi::arm("stage.stimulus:throw-transient:count=1");
    const auto faulted = campaign_runner(cfg).run();
    fi::disarm();

    EXPECT_EQ(timing_free(faulted), clean);
    ASSERT_EQ(faulted.results.size(), 6u);
    for (const auto& r : faulted.results) {
        EXPECT_EQ(r.attempts, 2u) << "scenario " << r.sc.index;
        EXPECT_FALSE(r.engine_error) << "scenario " << r.sc.index;
    }
    EXPECT_EQ(faulted.scenario_retries, 6u);
    EXPECT_EQ(faulted.scenario_gave_up, 0u);
    EXPECT_EQ(faulted.stage_reuse_hits, 0u);
    EXPECT_EQ(faulted.stage_reuse_computes, 0u);
}

TEST(StageReuse, DeviceReseedHasNoOverlapToPool) {
    // Fully device-reseeded trials are distinct devices: every tx_capture
    // digest is unique, so only the (preset-wide) stimulus stage pools.
    auto cfg = reuse_campaign();
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 3;
    cfg.reseed = reseed_policy::device;
    const auto result = campaign_runner(cfg).run();
    EXPECT_EQ(result.stage_reuse_computes, 1u); // stimulus only
    EXPECT_EQ(result.stage_reuse_hits, 2u);

    // And it stays bit-identical to grading every row alone.
    EXPECT_EQ(timing_free(merged_one_row_shards(cfg)), timing_free(result));
}

TEST(StageReuse, SharedScenarioResultsMatchIsolatedEngineRuns) {
    // Every pooled scenario must equal the result of grading it alone —
    // adoption may never leak another scenario's configuration.
    auto cfg = reuse_campaign();
    const auto shared = campaign_runner(cfg).run();
    const auto grid = expand_grid(cfg);
    ASSERT_EQ(shared.results.size(), grid.size());
    for (const std::size_t i : {std::size_t{0}, grid.size() / 2,
                                grid.size() - 1}) {
        const auto isolated =
            bist::bist_engine(scenario_config(cfg, grid[i])).run();
        export_options opt;
        opt.include_timing = false;
        scenario_result expected = shared.results[i];
        expected.report = isolated;
        EXPECT_EQ(scenario_json(shared.results[i], opt),
                  scenario_json(expected, opt))
            << "scenario " << i;
    }
}

TEST(ReseedPolicy, ProbesMovesOnlyTheProbeSeedAsABlockDesign) {
    auto cfg = reuse_campaign();
    cfg.reseed = reseed_policy::probes;
    const auto grid = expand_grid(cfg);

    const auto base0 = scenario_config(cfg, grid[0]);
    for (const auto& sc : grid) {
        const auto c = scenario_config(cfg, sc);
        // Device identity is fixed across the whole grid.
        EXPECT_EQ(c.tx.seed, cfg.base.tx.seed);
        EXPECT_EQ(c.tiadc.seed, cfg.base.tiadc.seed);
        EXPECT_DOUBLE_EQ(c.tiadc.jitter_rms_s, cfg.base.tiadc.jitter_rms_s);
        // Probe draws are a block design: a function of the trial alone,
        // shared by every preset and fault.
        const auto twin = scenario_config(
            cfg, grid[sc.trial]); // preset 0, fault 0, same trial
        EXPECT_EQ(c.probe_seed, twin.probe_seed);
        if (sc.trial != grid[0].trial) {
            EXPECT_NE(c.probe_seed, base0.probe_seed);
        }
    }
    // Distinct trials draw distinct probes.
    EXPECT_NE(scenario_config(cfg, grid[0]).probe_seed,
              scenario_config(cfg, grid[1]).probe_seed);
}

} // namespace
