// Unit tests for descriptive statistics and error metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "core/stats.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using sdrbist::testing::mean;
using sdrbist::testing::variance;
using sdrbist::testing::stddev;
using sdrbist::testing::max_abs;

TEST(Stats, MeanVarianceStddev) {
    const std::vector<double> x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(x), 5.0);
    EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, RmsAndMaxAbs) {
    const std::vector<double> x{3.0, -4.0};
    EXPECT_DOUBLE_EQ(rms(x), std::sqrt(12.5));
    EXPECT_DOUBLE_EQ(max_abs(x), 4.0);
    EXPECT_DOUBLE_EQ(max_abs(std::vector<double>{}), 0.0);
}

TEST(Stats, MseAndRelativeError) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 2.0, 4.0};
    EXPECT_NEAR(relative_rms_error(a, b), 1.0 / std::sqrt(14.0), 1e-12);
    EXPECT_DOUBLE_EQ(relative_rms_error(a, a), 0.0);
}

TEST(Stats, Percentile) {
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(x, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(x, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(x, 50.0), 2.5);
}

TEST(Stats, Preconditions) {
    const std::vector<double> empty;
    const std::vector<double> one{1.0};
    const std::vector<double> two{1.0, 2.0};
    EXPECT_THROW(mean(empty), contract_violation);
    EXPECT_THROW(variance(one), contract_violation);
    EXPECT_THROW(relative_rms_error(two, one), contract_violation);
    EXPECT_THROW(percentile(empty, 50.0), contract_violation);
    const std::vector<double> zeros{0.0, 0.0};
    EXPECT_THROW(relative_rms_error(zeros, two), contract_violation);
}

} // namespace
