// The stimulus stage's band-plan search on the preset catalogue: which
// plans it defers as blind by construction, and that deferring them leaves
// its choice as it was when every plan was measured in search order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bist/pipeline.hpp"
#include "calib/dual_rate.hpp"
#include "core/units.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;

/// One measured candidate of the search without deferral.
struct visit {
    double carrier_hz;
    bool flagged;
    double discrimination;
};

/// The stimulus stage's search with every plan measured in order (the
/// carrier nudges of bist::choose_bist_band_plan), up to the first pass.
std::vector<visit> measure_in_order(const bist::bist_config& cfg,
                                    const bist::stimulus_output& stim) {
    const double b = cfg.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(cfg.slow_divider);
    const double occ = stim.occupied_bw_calibration_hz;
    const double occ_max = std::max(occ, stim.occupied_bw_graded_hz);
    std::vector<visit> visits;
    for (const double frac : {0.0, 0.25, -0.25, 0.125, -0.125, 0.375, -0.375}) {
        const double fc = cfg.preset.default_carrier_hz + frac * b1;
        for (const auto& plan :
             calib::candidate_band_plans(fc, b, b1, occ, occ_max)) {
            const double disc = calib::dual_rate_discrimination(plan, fc, occ);
            visits.push_back({fc, calib::plan_is_blind(plan, fc, occ), disc});
            if (disc >= 1e-2)
                return visits;
        }
    }
    return visits;
}

TEST(BandPlanSearch, CatalogueDefersExactlyItsBlindPlans) {
    // Measured in order, the catalogue's searches take 17 discriminations;
    // the 10 the predictor flags are the blind ones: tactical-bpsk-2M's
    // 400 MHz (two plans) and 411.25 MHz (four), psk8-5M's 900 MHz (four).
    const std::map<std::string, std::vector<double>> blind = {
        {"tactical-bpsk-2M",
         {400.0 * MHz, 400.0 * MHz, 411.25 * MHz, 411.25 * MHz,
          411.25 * MHz, 411.25 * MHz}},
        {"psk8-5M", {900.0 * MHz, 900.0 * MHz, 900.0 * MHz, 900.0 * MHz}},
    };
    std::size_t measured = 0;
    std::size_t evaluated = 0;
    for (const auto& preset : waveform::standard_catalogue()) {
        SCOPED_TRACE(preset.name);
        bist::bist_config cfg;
        cfg.preset = preset;
        const auto stim = bist::run_stimulus(cfg);
        const auto visits = measure_in_order(cfg, stim);
        std::vector<double> flagged;
        for (const auto& v : visits) {
            if (v.flagged)
                flagged.push_back(v.carrier_hz);
            EXPECT_EQ(v.flagged,
                      v.discrimination <= calib::blind_discrimination)
                << v.carrier_hz << " Hz reads " << v.discrimination;
        }
        const auto it = blind.find(preset.name);
        EXPECT_EQ(flagged, it == blind.end() ? std::vector<double>{}
                                             : it->second);
        measured += visits.size();

        // The deferred search measures the rest once each, and lands on
        // the same plan as the stage did.
        const auto choice = bist::choose_bist_band_plan(
            cfg, stim.occupied_bw_calibration_hz, stim.occupied_bw_graded_hz);
        EXPECT_EQ(choice.evaluated, visits.size() - flagged.size());
        EXPECT_EQ(choice.carrier_hz, visits.back().carrier_hz);
        EXPECT_EQ(choice.discrimination, visits.back().discrimination);
        EXPECT_EQ(choice.carrier_hz, stim.carrier_hz);
        EXPECT_EQ(choice.discrimination, stim.plan_discrimination);
        evaluated += choice.evaluated;
    }
    EXPECT_EQ(measured, 17u);
    EXPECT_EQ(evaluated, 7u);
}

} // namespace
