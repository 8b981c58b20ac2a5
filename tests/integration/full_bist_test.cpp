// End-to-end BIST integration: fault coverage and multistandard sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "bist/faults.hpp"
#include "bist/multistandard.hpp"
#include "bist/pipeline.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::bist;

bist_config base_config() {
    bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    cfg.min_output_rms = 1.2;
    return cfg;
}

// ---- fault coverage ---------------------------------------------------------

class FaultCoverage : public ::testing::TestWithParam<fault_kind> {};

TEST_P(FaultCoverage, VerdictMatchesDeviceHealth) {
    auto cfg = base_config();
    cfg.tx = inject_fault(cfg.tx, GetParam());
    const bist_engine engine(cfg);
    const auto report = engine.run();
    if (GetParam() == fault_kind::none)
        EXPECT_TRUE(report.pass()) << report.summary();
    else
        EXPECT_FALSE(report.pass())
            << to_string(GetParam()) << " escaped:\n"
            << report.summary();
}

INSTANTIATE_TEST_SUITE_P(AllFaults, FaultCoverage,
                         ::testing::ValuesIn(fault_catalogue()),
                         [](const auto& info) {
                             auto name = to_string(info.param);
                             for (auto& c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ---- multistandard ----------------------------------------------------------

TEST(Multistandard, EveryCataloguedStandardPasses) {
    bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    const auto presets = waveform::standard_catalogue();
    const auto reports = run_catalogue(cfg, presets);
    ASSERT_EQ(reports.size(), presets.size());
    for (const auto& r : reports) {
        EXPECT_TRUE(r.pass()) << r.preset_name << ":\n" << r.summary();
        EXPECT_LT(std::abs(r.skew.d_hat - 180.0 * ps), 3.0 * ps)
            << r.preset_name;
    }
}

TEST(Multistandard, DegenerateCarrierGetsNudged) {
    // The 900 MHz preset sits on a blind carrier; the engine must have
    // moved the test carrier and still estimated the skew correctly.
    bist_config cfg;
    cfg.tiadc.quant.full_scale = 2.0;
    cfg.preset = waveform::find_preset("psk8-5M");
    const bist_engine engine(cfg);
    const auto report = engine.run();
    EXPECT_NE(report.carrier_nudge_hz, 0.0);
    EXPECT_NEAR(report.skew.d_hat, 180.0 * ps, 2.0 * ps);
    EXPECT_GT(report.plan_discrimination, 1e-2);
}

// ---- repeatability across device seeds -------------------------------------

class SkewAccuracySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkewAccuracySeeds, SubPicosecondOnPaperSetup) {
    auto cfg = base_config();
    cfg.tiadc.seed = GetParam();
    cfg.probe_seed = GetParam() ^ 0xABCD;
    bist_session session(cfg);
    session.run();
    const auto report = session.report();
    EXPECT_NEAR(report.skew.d_hat,
                session.tx_capture().capture.fast.true_delay_s, 1.2 * ps)
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewAccuracySeeds,
                         ::testing::Values(0xADC0ull, 0x1111ull, 0x2222ull),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param & 0xFFFF);
                         });

// ---- gain/offset mismatch robustness ----------------------------------------

TEST(Integration, SkewEstimateToleratesUncalibratedChannelMismatch) {
    // The paper assumes no gain/offset mismatch, and the pipeline does not
    // calibrate it: 2% gain and 1% offset mismatch between the TIADC
    // channels go uncorrected into the skew estimator.
    auto cfg = base_config();
    cfg.tiadc.ch1_gain_error = 0.02;
    cfg.tiadc.ch1_offset_error = 0.01;
    bist_session session(cfg);
    session.run();
    const auto report = session.report();
    // Mild mismatch must not break the skew estimate badly.
    EXPECT_NEAR(report.skew.d_hat,
                session.tx_capture().capture.fast.true_delay_s, 5.0 * ps);
}

} // namespace
