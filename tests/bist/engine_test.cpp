// BIST engine tests on the paper configuration.
#include <gtest/gtest.h>

#include <cmath>

#include "bist/pipeline.hpp"
#include "core/contracts.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::bist;

bist_config golden_config() {
    bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    return cfg;
}

TEST(BistEngine, GoldenDevicePasses) {
    bist_session session(golden_config());
    session.run();
    const auto report = session.report();
    EXPECT_TRUE(report.pass()) << report.summary();
    EXPECT_TRUE(report.dual_rate_conditions_ok);
    EXPECT_TRUE(report.skew.converged);
    EXPECT_TRUE(report.mask.pass);
    EXPECT_TRUE(report.evm_pass);
    // Paper-grade skew accuracy on the full chain.
    EXPECT_NEAR(report.skew.d_hat,
                session.tx_capture().capture.fast.true_delay_s, 1.0 * ps);
    EXPECT_LT(report.evm.evm_percent(), 2.0);
}

TEST(BistEngine, ReportCarriesPaperGeometry) {
    const bist_engine engine(golden_config());
    const auto report = engine.run();
    EXPECT_NEAR(report.max_search_delay_s, 483.0 * ps, 1.0 * ps);
    EXPECT_DOUBLE_EQ(report.carrier_hz, 1.0 * GHz);
    EXPECT_DOUBLE_EQ(report.carrier_nudge_hz, 0.0); // 1 GHz is well-placed
    EXPECT_NEAR(report.fast_band_offset_hz, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(report.programmed_delay_s, 180.0 * ps);
    EXPECT_GT(report.plan_discrimination, 1e-2);
}

TEST(BistEngine, DeterministicAcrossRuns) {
    const bist_engine engine(golden_config());
    const auto a = engine.run();
    const auto b = engine.run();
    EXPECT_DOUBLE_EQ(a.skew.d_hat, b.skew.d_hat);
    EXPECT_DOUBLE_EQ(a.evm.evm_rms, b.evm.evm_rms);
    EXPECT_DOUBLE_EQ(a.mask.worst_margin_db, b.mask.worst_margin_db);
}

TEST(BistEngine, StrictMaskFailsTheSameDevice) {
    auto cfg = golden_config();
    cfg.preset.mask = waveform::make_strict_mask(10.0 * MHz, 0.5);
    const bist_engine engine(cfg);
    const auto report = engine.run();
    // The strict far floor (-60 dBc) sits below the jitter measurement
    // floor: the same golden hardware now fails — masks must respect the
    // instrument (see relax_to_measurement_floor).
    EXPECT_FALSE(report.mask.pass);
}

TEST(BistEngine, PowerFloorVerdict) {
    auto cfg = golden_config();
    cfg.min_output_rms = 1e9; // impossible requirement
    const bist_engine engine(cfg);
    const auto report = engine.run();
    EXPECT_FALSE(report.power_pass);
    EXPECT_FALSE(report.pass());
    EXPECT_GT(report.measured_output_rms, 0.0);
}

TEST(BistEngine, DcdeStaticErrorIsEstimatedNotAssumed) {
    // A DCDE whose true delay differs from the programmed value by a
    // static error: the report's estimate must track the *true* delay.
    auto cfg = golden_config();
    cfg.tiadc.delay_element.static_error_s = 12.0 * ps;
    bist_session session(cfg);
    session.run();
    const auto report = session.report();
    EXPECT_NEAR(session.tx_capture().capture.fast.true_delay_s, 192.0 * ps,
                0.1 * ps);
    EXPECT_NEAR(report.skew.d_hat, 192.0 * ps, 1.5 * ps);
    EXPECT_TRUE(report.pass()) << report.summary();
}

TEST(BistEngine, D0HintIsHonoured) {
    auto cfg = golden_config();
    cfg.d0_hint_s = 100.0 * ps;
    const bist_engine engine(cfg);
    const auto report = engine.run();
    EXPECT_NEAR(report.skew.d_hat, 180.0 * ps, 1.5 * ps);
}

TEST(BistEngine, AcprAndObwReported) {
    const bist_engine engine(golden_config());
    const auto report = engine.run();
    // 99 % OBW of a 10 MHz SRRC alpha = 0.5 waveform: ~11-13 MHz.
    EXPECT_GT(report.occupied_bw_hz, 9.0 * MHz);
    EXPECT_LT(report.occupied_bw_hz, 14.0 * MHz);
    // Golden ACPR well below the -30 dBc default limit.
    EXPECT_LT(report.acpr.worst_dbc(), -35.0);
    EXPECT_TRUE(report.acpr_pass);
    // An impossible ACPR limit flips the verdict.
    auto cfg = golden_config();
    cfg.acpr_limit_dbc = -90.0;
    const auto strict = bist_engine(cfg).run();
    EXPECT_FALSE(strict.acpr_pass);
    EXPECT_FALSE(strict.pass());
}

TEST(BistEngine, SummaryMentionsAllVerdicts) {
    auto cfg = golden_config();
    cfg.min_output_rms = 0.5;
    const bist_engine engine(cfg);
    const auto report = engine.run();
    const auto s = report.summary();
    EXPECT_NE(s.find("time-skew"), std::string::npos);
    EXPECT_NE(s.find("spectral mask"), std::string::npos);
    EXPECT_NE(s.find("EVM"), std::string::npos);
    EXPECT_NE(s.find("output power"), std::string::npos);
    EXPECT_NE(s.find("verdict"), std::string::npos);
}

TEST(BistEngine, Preconditions) {
    auto cfg = golden_config();
    cfg.fast_samples = 16;
    EXPECT_THROW(bist_engine{cfg}, contract_violation);
    cfg = golden_config();
    cfg.slow_divider = 1;
    EXPECT_THROW(bist_engine{cfg}, contract_violation);
    cfg = golden_config();
    cfg.probe_count = 4;
    EXPECT_THROW(bist_engine{cfg}, contract_violation);
}

} // namespace
