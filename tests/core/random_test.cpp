// Determinism and distribution sanity of the seeded RNG.
#include <gtest/gtest.h>

#include <vector>

#include "core/contracts.hpp"
#include "core/random.hpp"
#include "support/sample_stats.hpp"

namespace {

using namespace sdrbist;
using sdrbist::testing::mean;
using sdrbist::testing::stddev;

TEST(Rng, SameSeedSameStream) {
    rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
}

TEST(Rng, DifferentSeedsDiffer) {
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        same += a.next_u64() == b.next_u64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, GaussianMoments) {
    rng g(7);
    std::vector<double> x(40000);
    for (auto& v : x)
        v = g.gaussian(1.5, 2.0);
    EXPECT_NEAR(mean(x), 1.5, 0.05);
    EXPECT_NEAR(stddev(x), 2.0, 0.05);
}

TEST(Rng, UniformRangeAndMoments) {
    rng g(9);
    const auto x = g.uniform_vector(40000, -2.0, 6.0);
    for (double v : x) {
        ASSERT_GE(v, -2.0);
        ASSERT_LT(v, 6.0);
    }
    EXPECT_NEAR(mean(x), 2.0, 0.08);
}

TEST(Rng, SigmaZeroIsDeterministic) {
    rng g(5);
    EXPECT_DOUBLE_EQ(g.gaussian(3.0, 0.0), 3.0);
}

TEST(Rng, ForkGivesIndependentStream) {
    rng parent(77);
    rng child = parent.fork();
    // The child stream must not mirror the parent's continuation.
    int same = 0;
    for (int i = 0; i < 50; ++i)
        same += parent.next_u64() == child.next_u64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds) {
    rng g(11);
    for (int i = 0; i < 200; ++i) {
        const int v = g.uniform_int(-3, 4);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 4);
    }
    EXPECT_THROW(g.uniform(2.0, 1.0), contract_violation);
}

} // namespace
