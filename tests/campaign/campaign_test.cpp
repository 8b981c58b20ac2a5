// Campaign subsystem: grid expansion, seed derivation, thread-count
// invariance, coverage-matrix correctness, legacy run_catalogue fidelity.
#include <gtest/gtest.h>

#include <set>

#include "bist/multistandard.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::campaign;

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M"),
                   waveform::find_preset("tactical-bpsk-2M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 2;
    cfg.seed = 0xFEEDull;
    cfg.threads = 1;
    return cfg;
}

// ---- grid expansion ---------------------------------------------------------

TEST(CampaignGrid, ShapeAndOrder) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    ASSERT_EQ(grid.size(), 2u * 2u * 2u);
    // Preset-major, then fault, then trial; index is the row number.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].index, i);
        EXPECT_EQ(grid[i].preset_index, i / 4);
        EXPECT_EQ(grid[i].fault_index, (i / 2) % 2);
        EXPECT_EQ(grid[i].trial, i % 2);
        EXPECT_EQ(grid[i].preset_name, cfg.presets[grid[i].preset_index].name);
        EXPECT_EQ(grid[i].fault, cfg.faults[grid[i].fault_index]);
    }
}

TEST(CampaignGrid, SeedsAreStableAndDistinct) {
    const auto cfg = small_campaign();
    const auto a = expand_grid(cfg);
    const auto b = expand_grid(cfg);
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed) << "expansion must be pure";
        seeds.insert(a[i].seed);
    }
    EXPECT_EQ(seeds.size(), a.size()) << "per-scenario seeds must be distinct";

    // Seeds depend only on grid coordinates, not on the other axes' sizes:
    // the first preset's scenarios keep their seeds when more presets are
    // appended.
    auto wider = cfg;
    wider.presets.push_back(waveform::find_preset("qam16-10M"));
    const auto w = expand_grid(wider);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(w[i].seed, a[i].seed);

    // A different master seed moves every scenario seed.
    auto reseeded = cfg;
    reseeded.seed = 0xFEEEull;
    const auto r = expand_grid(reseeded);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NE(r[i].seed, a[i].seed);
}

TEST(CampaignGrid, RejectsEmptyAxes) {
    auto cfg = small_campaign();
    cfg.presets.clear();
    EXPECT_THROW(expand_grid(cfg), contract_violation);
    cfg = small_campaign();
    cfg.faults.clear();
    EXPECT_THROW(expand_grid(cfg), contract_violation);
    cfg = small_campaign();
    cfg.trials = 0;
    EXPECT_THROW(expand_grid(cfg), contract_violation);
}

// ---- scenario config --------------------------------------------------------

TEST(ScenarioConfig, ReseedDerivesFreshSeedsPerScenario) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    const auto c0 = scenario_config(cfg, grid[0]);
    const auto c1 = scenario_config(cfg, grid[1]);
    EXPECT_NE(c0.tx.seed, cfg.base.tx.seed);
    EXPECT_NE(c0.tx.seed, c1.tx.seed);
    EXPECT_NE(c0.tiadc.seed, c1.tiadc.seed);
    EXPECT_NE(c0.probe_seed, c1.probe_seed);
    // Pure function of (config, scenario).
    const auto c0_again = scenario_config(cfg, grid[0]);
    EXPECT_EQ(c0.tx.seed, c0_again.tx.seed);
    EXPECT_EQ(c0.tiadc.seed, c0_again.tiadc.seed);
}

TEST(ScenarioConfig, LegacyModeKeepsBaseSeeds) {
    auto cfg = small_campaign();
    cfg.reseed = reseed_policy::off;
    const auto grid = expand_grid(cfg);
    for (const auto& sc : grid) {
        const auto c = scenario_config(cfg, sc);
        EXPECT_EQ(c.tx.seed, cfg.base.tx.seed);
        EXPECT_EQ(c.tiadc.seed, cfg.base.tiadc.seed);
        EXPECT_EQ(c.probe_seed, cfg.base.probe_seed);
        EXPECT_DOUBLE_EQ(c.tiadc.jitter_rms_s, cfg.base.tiadc.jitter_rms_s);
    }
}

TEST(ScenarioConfig, AppliesPresetAndFault) {
    const auto cfg = small_campaign();
    const auto grid = expand_grid(cfg);
    // grid[6]: preset 1 (bpsk), fault 1 (pa_gain_drop), trial 0.
    const auto c = scenario_config(cfg, grid[6]);
    EXPECT_EQ(c.preset.name, "tactical-bpsk-2M");
    EXPECT_DOUBLE_EQ(c.tx.pa_gain_db, cfg.base.tx.pa_gain_db - 6.0);
    // Mask was relaxed to the measurement floor: limits at least as high.
    const auto& original = cfg.presets[1].mask;
    for (std::size_t s = 0; s < original.segments().size(); ++s)
        EXPECT_GE(c.preset.mask.segments()[s].limit_dbc,
                  original.segments()[s].limit_dbc);
}

TEST(ScenarioConfig, PerturbationsAreDeterministicAndScaled) {
    auto cfg = small_campaign();
    cfg.perturb.jitter_rel_sigma = 0.2;
    cfg.perturb.dcde_static_sigma_s = 2.0 * ps;
    const auto grid = expand_grid(cfg);
    const auto a = scenario_config(cfg, grid[0]);
    const auto b = scenario_config(cfg, grid[0]);
    EXPECT_DOUBLE_EQ(a.tiadc.jitter_rms_s, b.tiadc.jitter_rms_s);
    EXPECT_DOUBLE_EQ(a.tiadc.delay_element.static_error_s,
                     b.tiadc.delay_element.static_error_s);
    // Different trials see different devices.
    const auto c = scenario_config(cfg, grid[1]);
    EXPECT_NE(a.tiadc.jitter_rms_s, c.tiadc.jitter_rms_s);
    // Zero sigma leaves the base hardware exactly untouched.
    auto no_spread = cfg;
    no_spread.perturb = {};
    const auto d = scenario_config(no_spread, grid[0]);
    EXPECT_DOUBLE_EQ(d.tiadc.jitter_rms_s, cfg.base.tiadc.jitter_rms_s);
    EXPECT_DOUBLE_EQ(d.tiadc.delay_element.static_error_s,
                     cfg.base.tiadc.delay_element.static_error_s);
}

// ---- execution --------------------------------------------------------------

TEST(CampaignRunner, ThreadCountInvariance) {
    auto cfg = small_campaign();
    cfg.threads = 1;
    const auto serial = campaign_runner(cfg).run();
    cfg.threads = 4;
    const auto parallel = campaign_runner(cfg).run();

    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const auto& a = serial.results[i];
        const auto& b = parallel.results[i];
        EXPECT_EQ(a.sc.index, b.sc.index);
        EXPECT_EQ(a.sc.seed, b.sc.seed);
        EXPECT_EQ(a.flagged(), b.flagged());
        EXPECT_DOUBLE_EQ(a.report.skew.d_hat, b.report.skew.d_hat);
        EXPECT_DOUBLE_EQ(a.report.evm.evm_rms, b.report.evm.evm_rms);
        EXPECT_DOUBLE_EQ(a.report.mask.worst_margin_db,
                         b.report.mask.worst_margin_db);
        EXPECT_DOUBLE_EQ(a.report.measured_output_rms,
                         b.report.measured_output_rms);
    }
    ASSERT_EQ(serial.matrix.size(), parallel.matrix.size());
    for (std::size_t p = 0; p < serial.matrix.size(); ++p)
        for (std::size_t f = 0; f < serial.matrix[p].size(); ++f) {
            EXPECT_EQ(serial.matrix[p][f].runs, parallel.matrix[p][f].runs);
            EXPECT_EQ(serial.matrix[p][f].flagged,
                      parallel.matrix[p][f].flagged);
        }

    // The strongest form: the timing-free structured exports are
    // byte-identical.
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(serial, opt), to_json(parallel, opt));
    EXPECT_EQ(coverage_csv(serial), coverage_csv(parallel));
}

TEST(CampaignRunner, CoverageMatrixOnSmallGrid) {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop,
                  bist::fault_kind::pa_overdrive};
    cfg.trials = 2;
    cfg.threads = 2;
    const auto result = campaign_runner(cfg).run();

    ASSERT_EQ(result.scenario_count(), 6u);
    ASSERT_EQ(result.matrix.size(), 1u);
    ASSERT_EQ(result.matrix[0].size(), 3u);

    // Golden passes every trial; both PA faults are caught every trial.
    EXPECT_EQ(result.matrix[0][0].runs, 2u);
    EXPECT_EQ(result.matrix[0][0].flagged, 0u);
    EXPECT_EQ(result.matrix[0][1].runs, 2u);
    EXPECT_EQ(result.matrix[0][1].flagged, 2u);
    EXPECT_EQ(result.matrix[0][2].flagged, 2u);

    EXPECT_EQ(result.golden_runs, 2u);
    EXPECT_EQ(result.golden_passes, 2u);
    EXPECT_DOUBLE_EQ(result.yield(), 1.0);
    EXPECT_EQ(result.fault_runs, 4u);
    EXPECT_EQ(result.fault_detected, 4u);
    EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
    EXPECT_DOUBLE_EQ(result.escape_rate(), 0.0);
    EXPECT_GT(result.wall_s, 0.0);
    EXPECT_GT(result.scenario_cpu_s, 0.0);
    EXPECT_GT(result.scenarios_per_second(), 0.0);

    // Reports carry the per-scenario evidence for the verdicts.
    for (const auto& r : result.results) {
        EXPECT_FALSE(r.engine_error) << r.error;
        if (r.sc.fault == bist::fault_kind::pa_gain_drop) {
            EXPECT_FALSE(r.report.power_pass) << "gain drop must trip the "
                                                 "output-power check";
        }
    }
}

TEST(CampaignRunner, EngineErrorsAreCapturedNotFatal) {
    campaign_config cfg;
    cfg.base.fast_samples = 16; // violates the engine precondition
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    const auto result = campaign_runner(cfg).run();
    ASSERT_EQ(result.results.size(), 1u);
    EXPECT_TRUE(result.results[0].engine_error);
    EXPECT_FALSE(result.results[0].error.empty());
    EXPECT_TRUE(result.results[0].flagged());
    EXPECT_EQ(result.golden_passes, 0u);
    EXPECT_DOUBLE_EQ(result.yield(), 0.0);
}

// ---- legacy wrapper ---------------------------------------------------------

TEST(RunCatalogue, MatchesLegacySerialLoopBitExactly) {
    bist::bist_config base;
    base.tiadc.quant.full_scale = 2.0;
    const std::vector<waveform::standard_preset> presets = {
        waveform::find_preset("paper-qpsk-10M"),
        waveform::find_preset("tactical-bpsk-2M")};

    const auto reports = bist::run_catalogue(base, presets);
    ASSERT_EQ(reports.size(), presets.size());

    // The pre-campaign implementation, inlined: same config, same mask
    // relaxation, base seeds untouched.
    for (std::size_t i = 0; i < presets.size(); ++i) {
        bist::bist_config cfg = base;
        cfg.preset = presets[i];
        const double occupied = presets[i].stimulus.symbol_rate *
                                (1.0 + presets[i].stimulus.rolloff);
        const double floor = waveform::bist_measurement_floor_dbc(
            presets[i].default_carrier_hz, cfg.tiadc.jitter_rms_s, occupied,
            cfg.tiadc.channel_rate_hz);
        cfg.preset.mask =
            waveform::relax_to_measurement_floor(presets[i].mask, floor);
        const auto legacy = bist::bist_engine(cfg).run();

        EXPECT_EQ(reports[i].preset_name, legacy.preset_name);
        EXPECT_DOUBLE_EQ(reports[i].skew.d_hat, legacy.skew.d_hat);
        EXPECT_DOUBLE_EQ(reports[i].evm.evm_rms, legacy.evm.evm_rms);
        EXPECT_DOUBLE_EQ(reports[i].mask.worst_margin_db,
                         legacy.mask.worst_margin_db);
        EXPECT_EQ(reports[i].pass(), legacy.pass());
    }
}

TEST(RunCatalogue, EmptyPresetListReturnsNoReports) {
    // Legacy semantics: the serial loop ran zero times; the campaign
    // wrapper must not trade that for a contract violation.
    const auto reports = bist::run_catalogue(bist::bist_config{}, {});
    EXPECT_TRUE(reports.empty());
}

TEST(RunCatalogue, PresetAcprOffsetIsPreserved) {
    // dqpsk-1M pins its adjacent channel at 2 MHz; grading it through the
    // catalogue must use that offset, not the generic 1.5 × occupied one.
    bist::bist_config base;
    base.tiadc.quant.full_scale = 2.0;
    auto preset = waveform::find_preset("dqpsk-1M");
    ASSERT_DOUBLE_EQ(preset.acpr_offset_hz, 2.0 * MHz);

    const auto via_catalogue = bist::run_catalogue(base, {preset});
    ASSERT_EQ(via_catalogue.size(), 1u);

    // Reference: the same engine run with the offset forced explicitly.
    bist::bist_config explicit_cfg = base;
    explicit_cfg.preset = preset;
    explicit_cfg.acpr_offset_hz = 2.0 * MHz;
    {
        const double occupied = preset.stimulus.symbol_rate *
                                (1.0 + preset.stimulus.rolloff);
        const double floor = waveform::bist_measurement_floor_dbc(
            preset.default_carrier_hz, explicit_cfg.tiadc.jitter_rms_s,
            occupied, explicit_cfg.tiadc.channel_rate_hz);
        explicit_cfg.preset.mask =
            waveform::relax_to_measurement_floor(preset.mask, floor);
    }
    const auto reference = bist::bist_engine(explicit_cfg).run();
    EXPECT_DOUBLE_EQ(via_catalogue[0].acpr.lower_dbc, reference.acpr.lower_dbc);
    EXPECT_DOUBLE_EQ(via_catalogue[0].acpr.upper_dbc, reference.acpr.upper_dbc);

    // And the preset offset genuinely changes the measurement (i.e. it is
    // not the auto offset in disguise).
    auto auto_preset = preset;
    auto_preset.acpr_offset_hz = 0.0;
    const auto auto_reports = bist::run_catalogue(base, {auto_preset});
    EXPECT_NE(via_catalogue[0].acpr.lower_dbc, auto_reports[0].acpr.lower_dbc);
}

} // namespace
