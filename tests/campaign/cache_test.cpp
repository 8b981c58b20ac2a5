// Scenario result cache: key properties (stable, coordinate- and
// config-sensitive, pinned across releases), warm-run bit-identity,
// corruption tolerance, the full bist_report JSON round-trip the cache
// rests on, and one store directory holding scenario and stage kinds.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bist/config_canonical.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using sdrbist::testing::scratch_dir;

/// Scenario entries (`<key>-scenario.sab`) directly under `dir`.
std::vector<fs::path> scenario_entries(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.size() > 13 &&
            name.compare(name.size() - 13, 13, "-scenario.sab") == 0)
            out.push_back(e.path());
    }
    return out;
}

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

// ---- canonical form: the stage-slice chain ---------------------------------

TEST(ConfigCanonical, IsPureAndVersioned) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto materialised = scenario_config(cfg, grid[0]);
    const std::string version_line =
        "stage_canon=" + std::to_string(bist::stage_canonical_version) + "\n";
    for (const bist::stage s : bist::stage_order) {
        const auto text = bist::canonical_stage_text(materialised, s);
        EXPECT_EQ(text, bist::canonical_stage_text(materialised, s));
        EXPECT_EQ(text.rfind(version_line, 0), 0u)
            << "serialisation must lead with its version line";
    }
    EXPECT_EQ(bist::stage_input_digest(materialised, bist::stage::grading),
              bist::stage_input_digest(materialised, bist::stage::grading));
    // Every leaf is a key=value line in the slice of the stage reading it.
    const auto tx = bist::canonical_stage_text(materialised,
                                               bist::stage::tx_capture);
    EXPECT_NE(tx.find("tx.pa_gain_db="), std::string::npos);
    EXPECT_NE(tx.find("tiadc.jitter_rms_s="), std::string::npos);
    EXPECT_NE(bist::canonical_stage_text(materialised, bist::stage::grading)
                  .find("preset.mask.segment.0.limit_dbc="),
              std::string::npos);
}

TEST(ConfigCanonical, DigestMovesWithAnyField) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto base = scenario_config(cfg, grid[0]);
    const auto reference =
        bist::stage_input_digest(base, bist::stage::grading);

    auto probe = [&](auto&& mutate) {
        bist::bist_config c = base;
        mutate(c);
        return bist::stage_input_digest(c, bist::stage::grading);
    };
    EXPECT_NE(probe([](auto& c) { c.evm_limit_percent += 0.5; }), reference);
    EXPECT_NE(probe([](auto& c) { c.tx.pa_gain_db += 1e-9; }), reference);
    EXPECT_NE(probe([](auto& c) { c.tiadc.seed ^= 1; }), reference);
    EXPECT_NE(probe([](auto& c) { c.probe_count += 1; }), reference);
    EXPECT_NE(probe([](auto& c) { c.lms.recon.taps += 2; }), reference);
    EXPECT_NE(probe([](auto& c) { c.spectrum.dense_rate_factor *= 1.001; }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.calibration_stimulus.prbs_seed ^= 1; }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.preset.stimulus.rolloff += 0.01; }),
              reference);
    EXPECT_NE(probe([](auto& c) {
                  auto segments = c.preset.mask.segments();
                  segments[0].limit_dbc -= 0.5;
                  c.preset.mask = waveform::spectral_mask(
                      c.preset.mask.name(),
                      c.preset.mask.reference_bandwidth(), segments);
              }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.dcde_target_delay_s += 1e-12; }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.capture_filter_halfwidth_hz = 1e6; }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.spectrum.mix_frequency += 1.0; }),
              reference);
    EXPECT_NE(probe([](auto& c) { c.acpr_offset_hz += 1e3; }), reference);
    // The preset name is cosmetic: no stage reads it (the scenario key
    // hashes it as a grid coordinate instead).
    EXPECT_EQ(probe([](auto& c) { c.preset.name += "x"; }), reference);
}

// ---- cache keys -------------------------------------------------------------

TEST(CacheKey, StableAcrossCallsAndProcessShaped) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto mat0 = scenario_config(cfg, grid[0]);
    const auto key = scenario_cache::key(grid[0], mat0);
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key, scenario_cache::key(grid[0], scenario_config(cfg, grid[0])));
    // Distinct scenarios get distinct keys.
    EXPECT_NE(key, scenario_cache::key(grid[1], scenario_config(cfg, grid[1])));
}

TEST(CacheKey, MovesWithGridCoordinatesAndConfig) {
    auto cfg = small_campaign();
    cfg.trials = 2;
    const auto grid = expand_grid(cfg);
    // grid[0] and grid[1]: same preset/fault, different trial.
    const auto k_trial0 = scenario_cache::key(grid[0], scenario_config(cfg, grid[0]));
    const auto k_trial1 = scenario_cache::key(grid[1], scenario_config(cfg, grid[1]));
    EXPECT_NE(k_trial0, k_trial1);

    // A different master seed moves every key (derived seeds change).
    auto reseeded = cfg;
    reseeded.seed ^= 0xF00Dull;
    const auto rgrid = expand_grid(reseeded);
    EXPECT_NE(scenario_cache::key(rgrid[0], scenario_config(reseeded, rgrid[0])),
              k_trial0);

    // Any engine-config field moves the key even at equal coordinates.
    auto tweaked = cfg;
    tweaked.base.evm_limit_percent = 7.5;
    const auto tgrid = expand_grid(tweaked);
    ASSERT_EQ(tgrid[0].seed, grid[0].seed) << "coordinates unchanged";
    EXPECT_NE(scenario_cache::key(tgrid[0], scenario_config(tweaked, tgrid[0])),
              k_trial0);

    // The preset name is a grid coordinate: renaming an otherwise
    // identical preset moves the key.
    auto renamed = cfg;
    renamed.presets[0].name += "-renamed";
    const auto ngrid = expand_grid(renamed);
    ASSERT_EQ(ngrid[0].seed, grid[0].seed) << "seed derivation unchanged";
    EXPECT_NE(scenario_cache::key(ngrid[0], scenario_config(renamed, ngrid[0])),
              k_trial0);

    // Monte-Carlo perturbations materialise into the config, hence the key.
    auto perturbed = cfg;
    perturbed.perturb.jitter_rel_sigma = 0.1;
    const auto pgrid = expand_grid(perturbed);
    EXPECT_NE(scenario_cache::key(pgrid[0], scenario_config(perturbed, pgrid[0])),
              k_trial0);
}

TEST(CacheKey, PinnedValueSurvivesTheEntryFormat) {
    // Keys name store entries and are carried by journals, so the key text
    // must not move by accident: it survived the move from `<key>.json`
    // files to store entries unchanged.  The one deliberate mover is
    // stage_canonical_version, which the key hashes through the grading
    // input digest: entries and journal rows primed by older numerics must
    // miss rather than mix into exports.
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    EXPECT_EQ(scenario_cache::key(grid[0], scenario_config(cfg, grid[0])),
              "d5f433a92a8d7c1c");
}

TEST(CacheKey, IndependentOfGridShape) {
    // Appending presets/faults keeps existing coordinates and thus keys:
    // that is what makes overlapping grids share cache entries.
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    auto wider = cfg;
    wider.presets.push_back(waveform::find_preset("tactical-bpsk-2M"));
    wider.faults.push_back(bist::fault_kind::pa_overdrive);
    wider.trials = 3;
    const auto wgrid = expand_grid(wider);
    // Scenario (preset 0, fault 0, trial 0) exists in both grids.
    EXPECT_EQ(scenario_cache::key(grid[0], scenario_config(cfg, grid[0])),
              scenario_cache::key(wgrid[0], scenario_config(wider, wgrid[0])));
}

// ---- warm reruns ------------------------------------------------------------

TEST(ScenarioCache, WarmRerunIsAllHitsAndBitIdentical) {
    const scratch_dir dir("warm");
    auto cfg = small_campaign();
    cfg.cache_dir = dir.path.string();

    const auto cold = campaign_runner(cfg).run();
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(cold.cache_misses, cold.scenario_count());
    // One entry file per scenario.
    EXPECT_EQ(scenario_entries(dir.path).size(), cold.scenario_count());

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.cache_hits, warm.scenario_count());
    EXPECT_EQ(warm.cache_misses, 0u);

    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(warm, opt), to_json(cold, opt));
    EXPECT_EQ(coverage_csv(warm), coverage_csv(cold));
    EXPECT_EQ(scenarios_jsonl(warm, opt), scenarios_jsonl(cold, opt));
    ASSERT_EQ(warm.matrix.size(), cold.matrix.size());
    for (std::size_t p = 0; p < cold.matrix.size(); ++p)
        for (std::size_t f = 0; f < cold.matrix[p].size(); ++f) {
            EXPECT_EQ(warm.matrix[p][f].runs, cold.matrix[p][f].runs);
            EXPECT_EQ(warm.matrix[p][f].flagged, cold.matrix[p][f].flagged);
        }
    // Reports round-tripped bit-exactly through the cache files.
    for (std::size_t i = 0; i < cold.results.size(); ++i) {
        EXPECT_DOUBLE_EQ(warm.results[i].report.skew.d_hat,
                         cold.results[i].report.skew.d_hat);
        EXPECT_DOUBLE_EQ(warm.results[i].report.evm.evm_rms,
                         cold.results[i].report.evm.evm_rms);
        EXPECT_DOUBLE_EQ(warm.results[i].report.mask.worst_margin_db,
                         cold.results[i].report.mask.worst_margin_db);
    }
    // The cached elapsed time is the grading cost, preserved on hits so
    // scenario_cpu_s keeps reporting what the grid costs to compute.
    EXPECT_DOUBLE_EQ(warm.scenario_cpu_s, cold.scenario_cpu_s);
    EXPECT_GT(warm.scenario_cpu_s, 0.0);
}

TEST(ScenarioCache, OverlappingGridReusesEntries) {
    const scratch_dir dir("overlap");
    auto narrow = small_campaign();
    narrow.faults = {bist::fault_kind::none};
    narrow.cache_dir = dir.path.string();
    const auto first = campaign_runner(narrow).run();
    EXPECT_EQ(first.cache_misses, 1u);

    auto wide = small_campaign(); // adds pa-gain-drop at fault index 1
    wide.cache_dir = dir.path.string();
    const auto second = campaign_runner(wide).run();
    EXPECT_EQ(second.cache_hits, 1u) << "the golden scenario was cached";
    EXPECT_EQ(second.cache_misses, 1u) << "the fault scenario is new";
}

TEST(ScenarioCache, CorruptEntryIsReGraded) {
    const scratch_dir dir("corrupt");
    auto cfg = small_campaign();
    cfg.cache_dir = dir.path.string();
    const auto cold = campaign_runner(cfg).run();

    // Truncate/garble one entry; the runner must fall back to the engine.
    const auto entries = scenario_entries(dir.path);
    ASSERT_FALSE(entries.empty());
    std::ofstream(entries.front(), std::ios::trunc)
        << "{\"store_version\":2,ga";

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.cache_hits, warm.scenario_count() - 1);
    EXPECT_EQ(warm.cache_misses, 1u);
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(warm, opt), to_json(cold, opt));
    EXPECT_EQ(warm.quarantined, 1u);
    // And the re-grade healed the entry.
    const auto healed = campaign_runner(cfg).run();
    EXPECT_EQ(healed.cache_hits, healed.scenario_count());
}

TEST(ScenarioCache, DeterministicEngineErrorsAreCached) {
    // A contract rejection reproduces on every run, so caching it is safe
    // and keeps warm reruns of error-bearing grids all-hits.  (Transient
    // std::exceptions are deliberately NOT persisted — see campaign.cpp.)
    const scratch_dir dir("engine_error");
    campaign_config cfg;
    cfg.base.fast_samples = 16; // violates the engine precondition
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.cache_dir = dir.path.string();

    const auto cold = campaign_runner(cfg).run();
    ASSERT_TRUE(cold.results[0].engine_error);
    EXPECT_EQ(cold.cache_misses, 1u);

    const auto warm = campaign_runner(cfg).run();
    EXPECT_EQ(warm.cache_hits, 1u);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_TRUE(warm.results[0].engine_error);
    EXPECT_EQ(warm.results[0].error, cold.results[0].error);
    EXPECT_TRUE(warm.results[0].flagged());
}

TEST(ScenarioCache, VersionSkewReadsAsMiss) {
    const scratch_dir dir("version");
    const scenario_cache cache(dir.path.string());
    EXPECT_FALSE(cache.load("0123456789abcdef").has_value());

    // A syntactically valid entry from a different format version.
    std::ofstream(cache.path_for("0123456789abcdef"))
        << R"({"store_version":999,"codec":1,"stage_canonical_version":1})"
        << "\npayload-from-the-future";
    EXPECT_FALSE(cache.load("0123456789abcdef").has_value());
    EXPECT_EQ(cache.quarantined(), 0u) << "skew is not corruption";
    EXPECT_TRUE(fs::exists(cache.path_for("0123456789abcdef")));
}

// ---- one store, six kinds ---------------------------------------------------

TEST(ScenarioCache, SharesOneLruSetWithStageKindsAndIgnoresOldEntries) {
    const scratch_dir dir("one_store");
    const std::string store_dir = dir.path.string();
    const scenario_cache cache(store_dir);
    stage_artefact_store stages(store_dir);

    scenario_result r;
    r.report.preset_name = "paper-qpsk-10M";
    bist::calibration_output cal;
    cal.probe_times = {0.25, 0.5};
    // Oldest first: scenario A, stage 1, scenario B, stage 2.
    cache.store("000000000000000a", r);
    stages.store_calibration(1, cal);
    cache.store("000000000000000b", r);
    stages.store_calibration(2, cal);
    const std::vector<std::string> by_age = {
        cache.path_for("000000000000000a"),
        stages.path_for(1, bist::stage::calibration),
        cache.path_for("000000000000000b"),
        stages.path_for(2, bist::stage::calibration)};
    for (std::size_t i = 0; i < by_age.size(); ++i)
        fs::last_write_time(by_age[i],
                            fs::file_time_type::clock::now() -
                                std::chrono::hours(10 - static_cast<int>(i)));

    // Entries of the retired `<key>.json` format are foreign files.
    const fs::path old_entry = dir.path / "00000000000000cc.json";
    const fs::path old_tmp = dir.path / "00000000000000cc.json.tmp.1f.0";
    std::ofstream(old_entry)
        << R"({"cache_version":1,"key":"00000000000000cc"})";
    std::ofstream(old_tmp) << "torn";

    const auto stats = scan_store_dir(store_dir);
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.files(), 4u) << "old-format files are never counted";

    store_gc_policy policy;
    policy.max_entries = 2;
    const auto gc = gc_store_dir(store_dir, policy);
    EXPECT_EQ(gc.scanned, 4u);
    EXPECT_EQ(gc.evicted, 2u);
    EXPECT_EQ(gc.kept, 2u);
    // One LRU set across kinds: the oldest scenario and the oldest stage
    // entry go, whatever their kind.
    EXPECT_FALSE(cache.load("000000000000000a").has_value());
    EXPECT_EQ(stages.load_calibration(1), nullptr);
    EXPECT_TRUE(cache.load("000000000000000b").has_value());
    EXPECT_TRUE(stages.load_calibration(2));
    EXPECT_TRUE(fs::exists(old_entry)) << "never touched";
    EXPECT_TRUE(fs::exists(old_tmp)) << "never touched";

    // A byte budget evicts scenario entries too.
    policy = {};
    policy.max_bytes = 1;
    (void)gc_store_dir(store_dir, policy);
    EXPECT_FALSE(cache.load("000000000000000b").has_value());
    EXPECT_EQ(scan_store_dir(store_dir).entries, 0u);
    EXPECT_TRUE(fs::exists(old_entry));
}

// ---- report round-trip ------------------------------------------------------

TEST(ScenarioCache, ReportRoundTripsBitExactly) {
    // A real engine report (trace, mask segments, received symbols, all
    // verdicts) survives JSON serialisation bit-for-bit.
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    const auto result = campaign_runner(cfg).run();
    ASSERT_FALSE(result.results.empty());
    const bist::bist_report& r = result.results[0].report;

    const auto back =
        record_reader::decode<bist::bist_report>(parse_json(report_json(r)));
    EXPECT_EQ(back.preset_name, r.preset_name);
    EXPECT_DOUBLE_EQ(back.carrier_hz, r.carrier_hz);
    EXPECT_DOUBLE_EQ(back.skew.d_hat, r.skew.d_hat);
    EXPECT_DOUBLE_EQ(back.skew.final_cost, r.skew.final_cost);
    EXPECT_EQ(back.skew.iterations, r.skew.iterations);
    EXPECT_EQ(back.skew.converged, r.skew.converged);
    EXPECT_EQ(back.skew.cost_evaluations, r.skew.cost_evaluations);
    ASSERT_EQ(back.skew.trace.size(), r.skew.trace.size());
    for (std::size_t i = 0; i < r.skew.trace.size(); ++i) {
        EXPECT_EQ(back.skew.trace[i].iteration, r.skew.trace[i].iteration);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].d_hat, r.skew.trace[i].d_hat);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].cost, r.skew.trace[i].cost);
        EXPECT_DOUBLE_EQ(back.skew.trace[i].mu, r.skew.trace[i].mu);
    }
    EXPECT_EQ(back.mask.pass, r.mask.pass);
    EXPECT_DOUBLE_EQ(back.mask.worst_margin_db, r.mask.worst_margin_db);
    EXPECT_DOUBLE_EQ(back.mask.reference_dbhz, r.mask.reference_dbhz);
    ASSERT_EQ(back.mask.segments.size(), r.mask.segments.size());
    for (std::size_t i = 0; i < r.mask.segments.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.mask.segments[i].measured_dbc,
                         r.mask.segments[i].measured_dbc);
        EXPECT_DOUBLE_EQ(back.mask.segments[i].segment.limit_dbc,
                         r.mask.segments[i].segment.limit_dbc);
    }
    EXPECT_DOUBLE_EQ(back.evm.evm_rms, r.evm.evm_rms);
    EXPECT_DOUBLE_EQ(back.evm.evm_peak, r.evm.evm_peak);
    EXPECT_DOUBLE_EQ(back.evm.timing_offset, r.evm.timing_offset);
    ASSERT_EQ(back.evm.received_symbols.size(),
              r.evm.received_symbols.size());
    for (std::size_t i = 0; i < r.evm.received_symbols.size(); ++i)
        EXPECT_EQ(back.evm.received_symbols[i], r.evm.received_symbols[i]);
    EXPECT_EQ(back.evm_pass, r.evm_pass);
    EXPECT_DOUBLE_EQ(back.measured_output_rms, r.measured_output_rms);
    EXPECT_EQ(back.power_pass, r.power_pass);
    EXPECT_DOUBLE_EQ(back.acpr.lower_dbc, r.acpr.lower_dbc);
    EXPECT_DOUBLE_EQ(back.acpr.upper_dbc, r.acpr.upper_dbc);
    EXPECT_EQ(back.acpr_pass, r.acpr_pass);
    EXPECT_DOUBLE_EQ(back.occupied_bw_hz, r.occupied_bw_hz);
    EXPECT_EQ(back.pass(), r.pass());
}

TEST(ScenarioCache, RejectsUnwritableDirectory) {
    EXPECT_THROW(scenario_cache(""), contract_violation);
}

} // namespace
