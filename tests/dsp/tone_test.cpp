// The IEEE-1057 three-parameter sine fit.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "dsp/tone.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::dsp;
using sdrbist::testing::mean;

TEST(SineFit, ExactRecovery) {
    const double f = 0.1234;
    const double amp = 0.83;
    const double phase = 1.1;
    const double offset = -0.2;
    std::vector<double> x(500);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = amp * std::cos(two_pi * f * static_cast<double>(n) + phase) +
               offset;
    const auto fit = sine_fit_3param(x, f);
    EXPECT_NEAR(fit.amplitude, amp, 1e-10);
    EXPECT_NEAR(fit.phase, phase, 1e-10);
    EXPECT_NEAR(fit.offset, offset, 1e-10);
    EXPECT_LT(fit.residual_rms, 1e-10);
}

class SineFitFreqs : public ::testing::TestWithParam<double> {};

TEST_P(SineFitFreqs, RecoversAcrossFrequencies) {
    const double f = GetParam();
    std::vector<double> x(700);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = 1.3 * std::cos(two_pi * f * static_cast<double>(n) - 0.7);
    const auto fit = sine_fit_3param(x, f);
    EXPECT_NEAR(fit.amplitude, 1.3, 1e-9);
    EXPECT_NEAR(fit.phase, -0.7, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Freqs, SineFitFreqs,
                         ::testing::Values(0.01, 0.1, 0.25, 0.4, 0.46, 0.49),
                         [](const auto& info) {
                             std::string name = "f";
                             name += std::to_string(
                                 static_cast<int>(info.param * 1000.0));
                             return name;
                         });

TEST(SineFit, NoiseScalesPhaseError) {
    // Phase estimate error ~ sigma/(amp·sqrt(N/2)).
    rng gen(21);
    const double f = 0.17;
    const double sigma = 0.05;
    const std::size_t n = 2000;
    std::vector<double> phase_errors;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = std::cos(two_pi * f * static_cast<double>(i) + 0.5) +
                   gen.gaussian(0.0, sigma);
        phase_errors.push_back(std::abs(sine_fit_3param(x, f).phase - 0.5));
    }
    const double expected = sigma / std::sqrt(static_cast<double>(n) / 2.0);
    EXPECT_LT(mean(phase_errors), 4.0 * expected);
    EXPECT_GT(mean(phase_errors), expected / 10.0);
}

TEST(SineFit, ResidualReflectsNoise) {
    rng gen(4);
    const double sigma = 0.1;
    std::vector<double> x(4000);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::cos(two_pi * 0.2 * static_cast<double>(i)) +
               gen.gaussian(0.0, sigma);
    const auto fit = sine_fit_3param(x, 0.2);
    EXPECT_NEAR(fit.residual_rms, sigma, 0.01);
}

TEST(SineFit, Preconditions) {
    std::vector<double> x(3, 0.0);
    EXPECT_THROW(sine_fit_3param(x, 0.1), contract_violation);
    std::vector<double> y(100, 0.0);
    EXPECT_THROW(sine_fit_3param(y, 0.0), contract_violation);
    EXPECT_THROW(sine_fit_3param(y, 0.5), contract_violation);
}

} // namespace
