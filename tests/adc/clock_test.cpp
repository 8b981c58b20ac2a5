// Sampling-clock model tests.
#include <gtest/gtest.h>

#include "adc/clock.hpp"
#include "core/contracts.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::adc;
using sdrbist::testing::mean;

TEST(SamplingClock, NominalEdgesWhenJitterFree) {
    sampling_clock clk({1.0 / (90.0 * MHz), 0.5 * us, 0.0}, 1);
    const auto edges = clk.edges(100);
    for (std::size_t k = 0; k < edges.size(); ++k)
        EXPECT_DOUBLE_EQ(edges[k],
                         0.5 * us + static_cast<double>(k) / (90.0 * MHz));
}

TEST(SamplingClock, JitterHasRequestedRms) {
    const double sigma = 3.0 * ps;
    sampling_clock clk({1.0 / (90.0 * MHz), 0.0, sigma}, 42);
    const auto edges = clk.edges(20000);
    std::vector<double> deviations(edges.size());
    for (std::size_t k = 0; k < edges.size(); ++k)
        deviations[k] = edges[k] - clk.nominal_edge(k);
    EXPECT_NEAR(rms(deviations), sigma, 0.05 * sigma);
    EXPECT_NEAR(mean(deviations), 0.0, 0.1 * sigma);
}

TEST(SamplingClock, DeterministicPerSeed) {
    sampling_clock a({1e-8, 0.0, 1.0 * ps}, 7);
    sampling_clock b({1e-8, 0.0, 1.0 * ps}, 7);
    sampling_clock c({1e-8, 0.0, 1.0 * ps}, 8);
    const auto ea = a.edges(50);
    const auto eb = b.edges(50);
    const auto ec = c.edges(50);
    EXPECT_EQ(ea, eb);
    EXPECT_NE(ea, ec);
}

TEST(SamplingClock, JitterIsIndependentPerEdge) {
    // Successive edge deviations must be (close to) uncorrelated.
    sampling_clock clk({1e-8, 0.0, 5.0 * ps}, 3);
    const auto edges = clk.edges(10000);
    double corr = 0.0, var = 0.0;
    double prev = edges[0] - clk.nominal_edge(0);
    for (std::size_t k = 1; k < edges.size(); ++k) {
        const double d = edges[k] - clk.nominal_edge(k);
        corr += d * prev;
        var += d * d;
        prev = d;
    }
    EXPECT_LT(std::abs(corr / var), 0.05);
}

TEST(SamplingClock, Preconditions) {
    EXPECT_THROW(sampling_clock({0.0, 0.0, 0.0}, 1), contract_violation);
    EXPECT_THROW(sampling_clock({1e-8, 0.0, -1.0}, 1), contract_violation);
}

} // namespace
