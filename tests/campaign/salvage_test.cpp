// Corrupt-input quarantine and the lenient merge: unreadable shard files
// are moved aside (evidence preserved) instead of failing the merge,
// inconsistent rows are dropped and counted, partially-covered grids
// yield partial results, and the cache quarantines garbled entries while
// the strict merge contract stays exactly as hard as before.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using sdrbist::testing::scratch_dir;

/// Minimal hand-built shard: `grid_size` rows of a 1-preset x 1-fault x N
/// grid, rows at the given indices.  Enough structure for merge_impl and
/// aggregate; the reports stay default.
campaign_result tiny_shard(std::size_t grid_size,
                           std::initializer_list<std::size_t> indices) {
    campaign_result shard;
    shard.preset_names = {"p"};
    shard.fault_names = {"none"};
    shard.trials = grid_size;
    shard.seed = 7;
    shard.grid_size = grid_size;
    for (const std::size_t i : indices) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = 0;
        row.sc.fault_index = 0;
        row.sc.trial = i;
        row.sc.fault = bist::fault_kind::none;
        row.sc.preset_name = "p";
        row.sc.seed = 100 + i;
        row.elapsed_s = static_cast<double>(i + 1);
        shard.results.push_back(std::move(row));
    }
    return shard;
}

TEST(Salvage, UnreadableShardFilesAreQuarantinedNotFatal) {
    const scratch_dir dir("shard_files");
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 2;
    cfg.seed = 0x5A17ull;

    std::vector<std::string> paths;
    for (std::size_t i = 0; i < 2; ++i) {
        auto shard_cfg = cfg;
        shard_cfg.shard = {i, 2};
        const auto shard = campaign_runner(shard_cfg).run();
        paths.push_back(dir.file("shard" + std::to_string(i) + ".json"));
        ASSERT_TRUE(write_result_file(paths.back(), shard));
    }
    // Truncate shard 1 mid-file — the classic killed-writer artefact.
    {
        const auto size = fs::file_size(paths[1]);
        fs::resize_file(paths[1], size / 2);
    }

    // The strict reader refuses...
    EXPECT_THROW(static_cast<void>(read_result_file(paths[1])),
                 contract_violation);

    // ...the salvage reader moves it aside and carries on.
    salvage_stats stats;
    const auto shards = read_result_files_salvage(paths, stats);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(stats.quarantined_files, 1u);
    ASSERT_EQ(stats.notes.size(), 1u);
    EXPECT_FALSE(fs::exists(paths[1])) << "the wreck was moved, not copied";
    EXPECT_TRUE(fs::exists(dir.path / "quarantine" / "shard1.json"));

    const auto merged = merge_results_salvage(shards, stats);
    EXPECT_EQ(stats.missing_rows, 1u);
    EXPECT_EQ(merged.scenario_count(), 1u);
}

TEST(Salvage, VersionSkewedShardFileIsQuarantined) {
    const scratch_dir dir("version_skew");
    const std::string path = dir.file("old.json");
    std::ofstream(path, std::ios::binary)
        << R"({"shard_file_version":1,"campaign":{}})";

    salvage_stats stats;
    const auto shards = read_result_files_salvage({path}, stats);
    EXPECT_TRUE(shards.empty());
    EXPECT_EQ(stats.quarantined_files, 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST(Salvage, DuplicateRowsDropWithFirstShardWinning) {
    const auto a = tiny_shard(3, {0, 1});
    const auto b = tiny_shard(3, {1, 2}); // row 1 collides with shard a

    salvage_stats stats;
    const auto merged = merge_results_salvage({a, b}, stats);
    EXPECT_EQ(stats.duplicate_rows, 1u);
    EXPECT_EQ(stats.missing_rows, 0u);
    ASSERT_EQ(merged.scenario_count(), 3u);
    // Shard a's copy of row 1 survives (first wins, order is the CLI's
    // argument order).
    EXPECT_EQ(merged.results[1].elapsed_s, a.results[1].elapsed_s);

    // The historical strict contract is untouched: the same collision is
    // still fatal without --salvage.
    EXPECT_THROW(static_cast<void>(merge_results({a, b})),
                 contract_violation);
}

TEST(Salvage, MismatchedAxesShardIsSkippedWholesale) {
    const auto a = tiny_shard(2, {0});
    auto b = tiny_shard(2, {1});
    b.seed = 8; // a different campaign entirely

    salvage_stats stats;
    const auto merged = merge_results_salvage({a, b}, stats);
    EXPECT_EQ(stats.skipped_shards, 1u);
    EXPECT_EQ(stats.missing_rows, 1u);
    EXPECT_EQ(merged.scenario_count(), 1u);
    EXPECT_EQ(merged.seed, a.seed) << "shard 0 is the axis reference";
    ASSERT_EQ(stats.notes.size(), 1u);
}

TEST(Salvage, CleanShardsSalvageIdenticallyToStrictMerge) {
    const auto a = tiny_shard(4, {0, 2});
    const auto b = tiny_shard(4, {1, 3});
    salvage_stats stats;
    const auto lenient = merge_results_salvage({a, b}, stats);
    const auto strict = merge_results({a, b});
    EXPECT_TRUE(stats.clean());
    EXPECT_EQ(result_to_json(lenient), result_to_json(strict));
}

TEST(Salvage, CacheQuarantinesGarbledEntries) {
    const scratch_dir dir("cache_quarantine");
    const scenario_cache cache(dir.file("cache"));
    const std::string key = "00deadbeef00cafe";

    std::ofstream(cache.path_for(key), std::ios::binary)
        << "{\"store_version\":2,ga";
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_FALSE(fs::exists(cache.path_for(key)));
    EXPECT_TRUE(fs::exists(fs::path(cache.dir()) / "quarantine" /
                           fs::path(cache.path_for(key)).filename()));

    // Version skew is stale, not corrupt: cache-gc's business, no move.
    const std::string skewed = "00deadbeef00cafd";
    std::ofstream(cache.path_for(skewed), std::ios::binary)
        << R"({"store_version":999,"codec":1,"stage_canonical_version":1})"
        << "\nold";
    EXPECT_FALSE(cache.load(skewed).has_value());
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_TRUE(fs::exists(cache.path_for(skewed)));

    // The maintenance scan keeps working over the quarantine subdirectory.
    const auto stats = scan_store_dir(cache.dir());
    EXPECT_EQ(stats.stale, 1u);
    EXPECT_EQ(stats.files(), 1u);
}

TEST(Salvage, QuarantineCollisionsGetNumericSuffixes) {
    const scratch_dir dir("collisions");
    const std::string victim = dir.file("bad.json");
    std::ofstream(victim, std::ios::binary) << "junk";
    EXPECT_TRUE(quarantine_file(victim));
    std::ofstream(victim, std::ios::binary) << "more junk";
    EXPECT_TRUE(quarantine_file(victim));
    EXPECT_TRUE(fs::exists(dir.path / "quarantine" / "bad.json"));
    EXPECT_TRUE(fs::exists(dir.path / "quarantine" / "bad.json.1"));
}

} // namespace
