// Stage-artefact store: byte-codec and stage-codec round-trips, typed
// store/load semantics (miss / version skew / corruption quarantine), GC
// determinism (age, LRU, size and count budgets, foreign files untouched),
// concurrent reader-vs-evictor safety, and the campaign-level byte-identity
// contract — exports identical with the store cold, warm or disabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bist/config_canonical.hpp"
#include "bist/pipeline.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/hash.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using sdrbist::testing::scratch_dir;

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 2;
    cfg.seed = 0xCAC4Eull;
    return cfg;
}

/// A tiny, cheap-to-build stage output for store plumbing tests that do
/// not care which stage the payload belongs to.
bist::calibration_output small_calibration() {
    bist::calibration_output cal;
    cal.probe_times = {0.125, 0.25, 0.5, 0.75};
    return cal;
}

void set_mtime_ago(const fs::path& path, std::chrono::seconds ago) {
    fs::last_write_time(path, fs::file_time_type::clock::now() - ago);
}

std::size_t count_files(const fs::path& dir) {
    if (!fs::is_directory(dir))
        return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

// ---- byte codec -------------------------------------------------------------

TEST(ByteCodec, RoundTripsPathologicalInputs) {
    std::vector<std::string> inputs;
    inputs.emplace_back();                       // empty
    inputs.emplace_back("x");                    // single byte
    inputs.emplace_back(3, '\0');                // short run of NULs
    inputs.emplace_back(100000, 'a');            // one giant run
    std::string cycle;                           // period below min_match
    for (int i = 0; i < 5000; ++i)
        cycle += "ab";
    inputs.push_back(cycle);
    std::string binary;                          // every byte value + newlines
    for (int i = 0; i < 4096; ++i) {
        binary += static_cast<char>(i & 0xFF);
        if (i % 7 == 0)
            binary += '\n';
    }
    inputs.push_back(binary);
    std::string noise;                           // incompressible LCG stream
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        noise += static_cast<char>(state >> 56);
    }
    inputs.push_back(noise);

    for (const std::string& raw : inputs) {
        const std::string payload = byte_codec_compress(raw);
        EXPECT_EQ(byte_codec_decompress(payload, raw.size()), raw)
            << "raw size " << raw.size();
    }
}

TEST(ByteCodec, CompressesRepetitiveData) {
    const std::string raw(100000, 'z');
    EXPECT_LT(byte_codec_compress(raw).size(), raw.size() / 10);
}

// ---- stage codec ------------------------------------------------------------

TEST(StageCodec, RoundTripsEveryStageElementExact) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    bist::bist_session session(scenario_config(cfg, grid[0]));
    session.run();
    ASSERT_TRUE(session.completed(bist::stage::grading))
        << "the reference grid must complete all five stages";

    // The codec renders doubles in shortest round-trip form, so the JSON
    // text is a bijection of the element values: text equality after a
    // decode/encode cycle IS element-exactness, for every field at once.
    {
        const std::string text = stimulus_json(session.stimulus());
        const auto back = stimulus_from_json(parse_json(text));
        EXPECT_EQ(stimulus_json(back), text);
        EXPECT_EQ(back.carrier_hz, session.stimulus().carrier_hz);
        EXPECT_EQ(back.plan_discrimination,
                  session.stimulus().plan_discrimination);
    }
    {
        const std::string text = tx_capture_json(session.tx_capture());
        const auto back = tx_capture_from_json(parse_json(text));
        EXPECT_EQ(tx_capture_json(back), text);
        EXPECT_EQ(back.programmed_delay_s,
                  session.tx_capture().programmed_delay_s);
        EXPECT_TRUE(back.dual_rate_conditions_ok);
    }
    {
        const std::string text = calibration_json(session.calibration());
        const auto back = calibration_from_json(parse_json(text));
        EXPECT_EQ(calibration_json(back), text);
        EXPECT_EQ(back.probe_times, session.calibration().probe_times);
        EXPECT_EQ(back.skew.d_hat, session.calibration().skew.d_hat);
    }
    {
        const std::string text =
            reconstruction_json(session.reconstruction());
        const auto back = reconstruction_from_json(parse_json(text));
        EXPECT_EQ(reconstruction_json(back), text);
    }
    {
        const std::string text = grading_json(session.grading());
        const auto back = grading_from_json(parse_json(text));
        EXPECT_EQ(grading_json(back), text);
        EXPECT_EQ(back.evm.evm_rms, session.grading().evm.evm_rms);
        EXPECT_EQ(back.mask.worst_margin_db,
                  session.grading().mask.worst_margin_db);
        EXPECT_EQ(back.occupied_bw_hz, session.grading().occupied_bw_hz);
    }
}

// ---- typed store/load -------------------------------------------------------

TEST(StageStore, TypedRoundTripAcrossInstancesAndMissOnAbsentDigest) {
    const scratch_dir dir("store_roundtrip");
    const auto cal = small_calibration();
    {
        stage_artefact_store store(dir.path.string());
        store.store_calibration(0xABCull, cal);
    }
    stage_artefact_store store(dir.path.string()); // fresh process stand-in
    const auto hit = store.load_calibration(0xABCull);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->probe_times, cal.probe_times);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_GT(store.bytes_served(), 0u);

    EXPECT_EQ(store.load_calibration(0xDEFull), nullptr);
    // Same digest, different stage: separate entries, so a plain miss.
    EXPECT_EQ(store.load_grading(0xABCull), nullptr);
    EXPECT_EQ(store.misses(), 2u);
    EXPECT_EQ(store.quarantined(), 0u);
}

TEST(StageStore, VersionSkewIsAPlainMissUntilOverwritten) {
    const scratch_dir dir("store_skew");
    stage_artefact_store store(dir.path.string());
    const std::uint64_t digest = 0x51ull;
    const std::string path =
        store.path_for(digest, bist::stage::calibration);
    std::ofstream(path, std::ios::binary)
        << "{\"store_version\":999,\"codec\":1,"
           "\"stage_canonical_version\":1}\npayload-from-the-future";

    EXPECT_EQ(store.load_calibration(digest), nullptr);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.quarantined(), 0u) << "skew is not corruption";
    EXPECT_TRUE(fs::exists(path)) << "skewed entries stay for cache-gc";
    EXPECT_EQ(scan_store_dir(dir.path.string()).stale, 1u);

    // A recompute publishes over the stale entry and heals it.
    store.store_calibration(digest, small_calibration());
    EXPECT_TRUE(store.load_calibration(digest));
    EXPECT_EQ(scan_store_dir(dir.path.string()).stale, 0u);
}

TEST(StageStore, CorruptEntriesAreQuarantinedEvenOnNameCollision) {
    const scratch_dir dir("store_quarantine");
    stage_artefact_store store(dir.path.string());
    const std::uint64_t digest = 0xD16ull;
    const std::string path =
        store.path_for(digest, bist::stage::calibration);
    // Corrupt the same entry twice; both wrecks must survive side by side
    // (quarantine collisions get a numeric suffix).
    for (int round = 0; round < 2; ++round) {
        store.store_calibration(digest, small_calibration());
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << "garbled, no header newline";
        EXPECT_EQ(store.load_calibration(digest), nullptr);
        EXPECT_FALSE(fs::exists(path)) << "the wreck must be moved aside";
    }
    EXPECT_EQ(store.quarantined(), 2u);
    EXPECT_EQ(store.misses(), 2u);
    EXPECT_EQ(count_files(dir.path / "quarantine"), 2u);

    // The quarantine subdirectory is invisible to scan and GC.
    EXPECT_EQ(scan_store_dir(dir.path.string()).files(), 0u);
    (void)gc_store_dir(dir.path.string());
    EXPECT_EQ(count_files(dir.path / "quarantine"), 2u);
}

TEST(StageStore, ForgedRawSizeIsQuarantinedBeforeAllocating) {
    // A header claiming a multi-terabyte payload must never reach the
    // decompressor's reserve(): the entry is corrupt, not an allocation.
    EXPECT_THROW(static_cast<void>(byte_codec_decompress(
                     byte_codec_compress("abc"), std::size_t{1} << 62)),
                 contract_violation);

    const scratch_dir dir("store_forged_size");
    stage_artefact_store store(dir.path.string());
    const std::uint64_t digest = 0xF0ull;
    const std::string path = store.path_for(digest, bist::stage::calibration);
    const std::string payload = byte_codec_compress("{}");
    json_object_writer h;
    h.size_field("store_version",
                 static_cast<std::size_t>(store_format_version));
    h.size_field("codec", static_cast<std::size_t>(byte_codec_version));
    h.string_field("kind", "calibration");
    h.string_field("key", fnv1a64::hex_digest(digest));
    h.size_field("stage_canonical_version",
                 static_cast<std::size_t>(bist::stage_canonical_version));
    h.size_field("raw_bytes", std::size_t{1} << 40);
    h.size_field("payload_bytes", payload.size());
    h.string_field("payload_fnv",
                   fnv1a64::hex_digest(fnv1a64::hash(payload)));
    std::ofstream(path, std::ios::binary) << h.str() << '\n' << payload;

    EXPECT_EQ(store.load_calibration(digest), nullptr);
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_FALSE(fs::exists(path));
}

// ---- GC ---------------------------------------------------------------------

TEST(StageStoreGc, RemovesUnusableFilesButNeverForeignOnes) {
    const scratch_dir dir("store_gc_taxonomy");
    stage_artefact_store store(dir.path.string());
    store.store_calibration(1, small_calibration()); // healthy

    std::ofstream(dir.path / "00000000000000aa-calibration.sab",
                  std::ios::binary)
        << "{\"store_version\":999,\"codec\":1,"
           "\"stage_canonical_version\":1}\nold"; // stale
    std::ofstream(dir.path / "00000000000000bb-stimulus.sab",
                  std::ios::binary)
        << "not even json\n"; // corrupt
    std::ofstream(dir.path / "00000000000000cc-grading.sab.tmp.dead.7",
                  std::ios::binary)
        << "torn publish"; // stray temp
    std::ofstream(dir.path / "README.txt") << "hands off";
    std::ofstream(dir.path / "notes.sab") << "wrong stem, still foreign";

    const auto stats = scan_store_dir(dir.path.string());
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.stale, 1u);
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(stats.stray_tmp, 1u);

    const auto gc = gc_store_dir(dir.path.string());
    EXPECT_EQ(gc.scanned, 4u) << "foreign files are never even counted";
    EXPECT_EQ(gc.removed, 3u);
    EXPECT_EQ(gc.evicted, 0u) << "no budgets, healthy entries stay";
    EXPECT_EQ(gc.kept, 1u);
    EXPECT_GT(gc.bytes_freed, 0u);
    EXPECT_TRUE(fs::exists(dir.path / "README.txt"));
    EXPECT_TRUE(fs::exists(dir.path / "notes.sab"));
    EXPECT_TRUE(store.load_calibration(1));
}

TEST(StageStoreGc, CountBudgetEvictsLeastRecentlyUsedFirst) {
    const scratch_dir dir("store_gc_lru");
    stage_artefact_store store(dir.path.string());
    const auto cal = small_calibration();
    for (std::uint64_t d = 1; d <= 4; ++d) {
        store.store_calibration(d, cal);
        // Explicit mtimes: digest 1 is the oldest, digest 4 the newest.
        set_mtime_ago(store.path_for(d, bist::stage::calibration),
                      std::chrono::hours(5 - static_cast<int>(d)));
    }
    store_gc_policy policy;
    policy.max_entries = 2;
    const auto gc = gc_store_dir(dir.path.string(), policy);
    EXPECT_EQ(gc.evicted, 2u);
    EXPECT_EQ(gc.kept, 2u);
    EXPECT_EQ(store.load_calibration(1), nullptr);
    EXPECT_EQ(store.load_calibration(2), nullptr);
    EXPECT_TRUE(store.load_calibration(3));
    EXPECT_TRUE(store.load_calibration(4));
}

TEST(StageStoreGc, EqualMtimesBreakTiesByFilenameDeterministically) {
    const scratch_dir dir("store_gc_ties");
    stage_artefact_store store(dir.path.string());
    const auto cal = small_calibration();
    const auto stamp = fs::file_time_type::clock::now() -
                       std::chrono::hours(1);
    for (std::uint64_t d = 1; d <= 3; ++d) {
        store.store_calibration(d, cal);
        fs::last_write_time(store.path_for(d, bist::stage::calibration),
                            stamp);
    }
    store_gc_policy policy;
    policy.max_entries = 1;
    const auto gc = gc_store_dir(dir.path.string(), policy);
    EXPECT_EQ(gc.evicted, 2u);
    // Ties evict in filename order, so the lexicographically-largest
    // entry name (digest 3) survives — on every run, on every platform.
    EXPECT_EQ(store.load_calibration(1), nullptr);
    EXPECT_EQ(store.load_calibration(2), nullptr);
    EXPECT_TRUE(store.load_calibration(3));
}

TEST(StageStoreGc, AgeBudgetEvictsIdleEntriesOnly) {
    const scratch_dir dir("store_gc_age");
    stage_artefact_store store(dir.path.string());
    const auto cal = small_calibration();
    store.store_calibration(1, cal);
    store.store_calibration(2, cal);
    set_mtime_ago(store.path_for(1, bist::stage::calibration),
                  std::chrono::hours(10));
    store_gc_policy policy;
    policy.max_age_s = 3600;
    const auto gc = gc_store_dir(dir.path.string(), policy);
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_EQ(store.load_calibration(1), nullptr);
    EXPECT_TRUE(store.load_calibration(2));
}

TEST(StageStoreGc, ByteBudgetEvictsOldestUntilItHolds) {
    const scratch_dir dir("store_gc_bytes");
    stage_artefact_store store(dir.path.string());
    const auto cal = small_calibration();
    std::uintmax_t entry_size = 0;
    for (std::uint64_t d = 1; d <= 3; ++d) {
        store.store_calibration(d, cal);
        const auto path = store.path_for(d, bist::stage::calibration);
        entry_size = fs::file_size(path);
        set_mtime_ago(path, std::chrono::hours(4 - static_cast<int>(d)));
    }
    store_gc_policy policy;
    policy.max_bytes = 2 * entry_size; // identical payloads: equal sizes
    const auto gc = gc_store_dir(dir.path.string(), policy);
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_EQ(store.load_calibration(1), nullptr) << "oldest goes first";
    EXPECT_TRUE(store.load_calibration(2));
    EXPECT_TRUE(store.load_calibration(3));
}

TEST(StageStoreGc, HitsRefreshTheLruRank) {
    const scratch_dir dir("store_gc_touch");
    stage_artefact_store store(dir.path.string());
    const auto cal = small_calibration();
    store.store_calibration(1, cal);
    store.store_calibration(2, cal);
    set_mtime_ago(store.path_for(1, bist::stage::calibration),
                  std::chrono::hours(8));
    set_mtime_ago(store.path_for(2, bist::stage::calibration),
                  std::chrono::hours(4));
    // Digest 1 was the LRU candidate — until this hit touches its mtime.
    ASSERT_TRUE(store.load_calibration(1));
    store_gc_policy policy;
    policy.max_entries = 1;
    (void)gc_store_dir(dir.path.string(), policy);
    EXPECT_TRUE(store.load_calibration(1));
    EXPECT_EQ(store.load_calibration(2), nullptr);
}

// ---- concurrency (TSan leg runs StageStore*) --------------------------------

TEST(StageStoreConcurrency, ReadersAndWritersRaceTheEvictorSafely) {
    const scratch_dir dir("store_tsan");
    const auto cal = small_calibration();
    stage_artefact_store seed(dir.path.string());
    for (std::uint64_t d = 1; d <= 16; ++d)
        seed.store_calibration(d, cal);

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        stage_artefact_store s(dir.path.string());
        while (!stop.load(std::memory_order_relaxed))
            for (std::uint64_t d = 1; d <= 16; ++d) {
                // Eviction mid-read is a plain miss; a hit is element-exact.
                if (const auto hit = s.load_calibration(d)) {
                    EXPECT_EQ(hit->probe_times, cal.probe_times);
                }
            }
    });
    std::thread writer([&] {
        stage_artefact_store s(dir.path.string());
        while (!stop.load(std::memory_order_relaxed))
            for (std::uint64_t d = 1; d <= 16; ++d)
                s.store_calibration(d, cal);
    });
    store_gc_policy policy;
    policy.max_entries = 4;
    for (int round = 0; round < 50; ++round)
        (void)gc_store_dir(dir.path.string(), policy);
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    writer.join();

    // The directory survives the race fully serviceable.
    seed.store_calibration(99, cal);
    const auto back = seed.load_calibration(99);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->probe_times, cal.probe_times);
}

// ---- campaign-level byte identity -------------------------------------------

TEST(StageStoreCampaign, ColdWarmAndDisabledExportsAreByteIdentical) {
    const scratch_dir dir("store_campaign");
    auto cfg = small_campaign();
    cfg.trials = 2;
    cfg.reseed = reseed_policy::probes; // shared upstream stages per cell

    const auto off = campaign_runner(cfg).run(); // store disabled
    EXPECT_EQ(off.store_hits, 0u);
    EXPECT_EQ(off.store_misses, 0u);

    cfg.stage_store_dir = (dir.path / "store").string();
    const auto cold = campaign_runner(cfg).run();
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_GT(cold.store_misses, 0u);

    const auto warm = campaign_runner(cfg).run();
    EXPECT_GT(warm.store_hits, 0u);
    EXPECT_EQ(warm.store_misses, 0u)
        << "every stage digest was published by the cold run";
    EXPECT_GT(warm.store_bytes, 0u);

    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(cold, opt), to_json(off, opt));
    EXPECT_EQ(to_json(warm, opt), to_json(off, opt));
    EXPECT_EQ(scenarios_jsonl(cold, opt), scenarios_jsonl(off, opt));
    EXPECT_EQ(scenarios_jsonl(warm, opt), scenarios_jsonl(off, opt));
    EXPECT_EQ(coverage_csv(warm), coverage_csv(off));

    // Thread count must not leak into warm-run exports either.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        auto sweep = cfg;
        sweep.threads = threads;
        const auto result = campaign_runner(sweep).run();
        EXPECT_EQ(result.store_misses, 0u) << threads << " threads";
        EXPECT_EQ(to_json(result, opt), to_json(off, opt))
            << threads << " threads";
        EXPECT_EQ(scenarios_jsonl(result, opt), scenarios_jsonl(off, opt))
            << threads << " threads";
    }
}

} // namespace
