// Shard partition/merge equivalence: for K shards at any thread count,
// merge_results() must reproduce the unsharded campaign bit-identically —
// scenario rows, coverage matrix, yield/escape statistics and timing-free
// exports.  Plus merge validation (duplicates, gaps, axis mismatches).
#include <gtest/gtest.h>

#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/task_scheduler.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::campaign;

campaign_config grid_campaign(std::size_t trials = 2) {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M"),
                   waveform::find_preset("tactical-bpsk-2M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = trials;
    cfg.seed = 0x54A2Dull;
    cfg.threads = 2;
    return cfg;
}

std::string fingerprint(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

void expect_equivalent(const campaign_result& merged,
                       const campaign_result& unsharded) {
    ASSERT_EQ(merged.results.size(), unsharded.results.size());
    EXPECT_EQ(merged.grid_size, unsharded.grid_size);
    EXPECT_EQ(merged.shard_count, 1u);
    // Strongest form first: byte-identical timing-free export covers the
    // rows, the matrix and the population statistics in one comparison.
    EXPECT_EQ(fingerprint(merged), fingerprint(unsharded));
    // And the structural fields explicitly, for diagnosable failures.
    for (std::size_t i = 0; i < unsharded.results.size(); ++i) {
        EXPECT_EQ(merged.results[i].sc.index, i);
        EXPECT_EQ(merged.results[i].sc.seed, unsharded.results[i].sc.seed);
        EXPECT_EQ(merged.results[i].flagged(), unsharded.results[i].flagged());
        EXPECT_DOUBLE_EQ(merged.results[i].report.skew.d_hat,
                         unsharded.results[i].report.skew.d_hat);
    }
    ASSERT_EQ(merged.matrix.size(), unsharded.matrix.size());
    for (std::size_t p = 0; p < unsharded.matrix.size(); ++p)
        for (std::size_t f = 0; f < unsharded.matrix[p].size(); ++f) {
            EXPECT_EQ(merged.matrix[p][f].runs, unsharded.matrix[p][f].runs);
            EXPECT_EQ(merged.matrix[p][f].flagged,
                      unsharded.matrix[p][f].flagged);
        }
    EXPECT_EQ(merged.golden_runs, unsharded.golden_runs);
    EXPECT_EQ(merged.golden_passes, unsharded.golden_passes);
    EXPECT_EQ(merged.fault_runs, unsharded.fault_runs);
    EXPECT_EQ(merged.fault_detected, unsharded.fault_detected);
}

std::vector<campaign_result> run_shards(campaign_config cfg, std::size_t k) {
    std::vector<campaign_result> shards;
    for (std::size_t i = 0; i < k; ++i) {
        cfg.shard = {i, k};
        shards.push_back(campaign_runner(cfg).run());
    }
    return shards;
}

class ShardMergeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardMergeEquivalence, MergedEqualsUnsharded) {
    const std::size_t k = GetParam();
    const auto cfg = grid_campaign();
    const auto unsharded = campaign_runner(cfg).run();
    ASSERT_EQ(unsharded.grid_size, 8u);

    auto shards = run_shards(cfg, k);
    // Round-robin partition: every scenario in exactly one shard.
    std::size_t rows = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].shard_index, i);
        EXPECT_EQ(shards[i].shard_count, k);
        for (const auto& r : shards[i].results)
            EXPECT_EQ(r.sc.index % k, i);
        rows += shards[i].results.size();
    }
    EXPECT_EQ(rows, unsharded.grid_size);

    expect_equivalent(merge_results(shards), unsharded);

    // Merge must be order-insensitive.
    std::reverse(shards.begin(), shards.end());
    expect_equivalent(merge_results(shards), unsharded);
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardMergeEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{7}));

TEST(ShardMerge, ThreadCountInvariantAcrossShards) {
    // Shards graded at 1 thread merge bit-identically with an unsharded
    // run at N threads (and vice versa): partitioning composes with the
    // thread-invariance contract.
    auto cfg = grid_campaign(/*trials=*/1);
    cfg.threads = task_scheduler::default_thread_count();
    const auto unsharded = campaign_runner(cfg).run();

    cfg.threads = 1;
    const auto merged_serial = merge_results(run_shards(cfg, 3));
    expect_equivalent(merged_serial, unsharded);

    cfg.threads = task_scheduler::default_thread_count();
    const auto merged_parallel = merge_results(run_shards(cfg, 3));
    EXPECT_EQ(fingerprint(merged_serial), fingerprint(merged_parallel));
}

TEST(ShardMerge, MoreShardsThanScenariosLeavesEmptyShards) {
    auto cfg = grid_campaign(/*trials=*/1);
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    const auto unsharded = campaign_runner(cfg).run();
    ASSERT_EQ(unsharded.grid_size, 2u);

    const auto shards = run_shards(cfg, 7);
    std::size_t empty = 0;
    for (const auto& s : shards)
        empty += s.results.empty();
    EXPECT_EQ(empty, 5u);
    expect_equivalent(merge_results(shards), unsharded);
}

// ---- merge validation (synthetic shards: no engine runs needed) -------------

campaign_result synthetic_shard(std::size_t shard_index,
                                std::size_t shard_count,
                                std::size_t grid_size) {
    campaign_result r;
    r.preset_names = {"p0"};
    r.fault_names = {"none", "pa-gain-drop"};
    r.trials = grid_size / 2;
    r.seed = 0xABCDull;
    r.shard_index = shard_index;
    r.shard_count = shard_count;
    r.grid_size = grid_size;
    for (std::size_t i = shard_index; i < grid_size; i += shard_count) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = 0;
        row.sc.fault_index = (i / r.trials) % 2;
        row.sc.fault = row.sc.fault_index == 0
                           ? bist::fault_kind::none
                           : bist::fault_kind::pa_gain_drop;
        row.sc.trial = i % r.trials;
        row.sc.preset_name = "p0";
        r.results.push_back(std::move(row));
    }
    return r;
}

TEST(ShardMerge, RejectsEmptyInput) {
    EXPECT_THROW(merge_results({}), contract_violation);
}

TEST(ShardMerge, RejectsDuplicateShard) {
    const auto s0 = synthetic_shard(0, 2, 4);
    const auto s1 = synthetic_shard(1, 2, 4);
    EXPECT_NO_THROW(merge_results({s0, s1}));
    EXPECT_THROW(merge_results({s0, s0}), contract_violation);
}

TEST(ShardMerge, RejectsIncompleteCoverage) {
    const auto s0 = synthetic_shard(0, 3, 6);
    const auto s1 = synthetic_shard(1, 3, 6);
    EXPECT_THROW(merge_results({s0, s1}), contract_violation);
}

TEST(ShardMerge, RejectsMismatchedCampaigns) {
    const auto s0 = synthetic_shard(0, 2, 4);
    auto s1 = synthetic_shard(1, 2, 4);
    s1.seed ^= 1;
    EXPECT_THROW(merge_results({s0, s1}), contract_violation);
    s1 = synthetic_shard(1, 2, 4);
    s1.fault_names.push_back("extra");
    EXPECT_THROW(merge_results({s0, s1}), contract_violation);
}

TEST(ShardMerge, MergedMeasuredFieldsCombineConservatively) {
    auto s0 = synthetic_shard(0, 2, 4);
    auto s1 = synthetic_shard(1, 2, 4);
    s0.wall_s = 1.5;
    s1.wall_s = 2.5;
    s0.threads_used = 4;
    s1.threads_used = 8;
    s0.cache_hits = 1;
    s1.cache_misses = 2;
    const auto merged = merge_results({s0, s1});
    EXPECT_DOUBLE_EQ(merged.wall_s, 4.0);
    EXPECT_EQ(merged.threads_used, 8u);
    EXPECT_EQ(merged.cache_hits, 1u);
    EXPECT_EQ(merged.cache_misses, 2u);
}

} // namespace
