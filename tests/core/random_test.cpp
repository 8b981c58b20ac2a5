// Determinism, distribution sanity and the stream contract of the seeded
// RNG: the in-repo MT19937-64 against std::mt19937_64, the in-repo polar
// Gaussian against libstdc++'s std::normal_distribution, and pinned first
// draws that hold under any compiler and standard library.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
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

    // The paired fill (odd length: the last pair's x is dropped), whose two
    // outputs per pair must also be uncorrelated.
    std::vector<double> f(40001);
    g.gaussian_fill(f, 2.0);
    EXPECT_NEAR(mean(f), 0.0, 0.05);
    EXPECT_NEAR(stddev(f), 2.0, 0.05);
    double cross = 0.0;
    for (std::size_t i = 0; i + 1 < f.size(); i += 2)
        cross += f[i] * f[i + 1];
    EXPECT_NEAR(cross / 20000.0 / 4.0, 0.0, 0.03);
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

TEST(Rng, EngineMatchesStdMt19937_64) {
    // 10 M words over seeds that exercise the seeding's carries and shifts.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
          std::uint64_t{0x9E3779B97F4A7C15}, ~std::uint64_t{0}}) {
        rng ours(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2'000'000; ++i) {
            const std::uint64_t a = ours.next_u64();
            const std::uint64_t b = ref();
            if (a != b)
                FAIL() << "seed " << seed << " word " << i;
        }
    }
}

TEST(Rng, FirstDrawsArePinned) {
    // Portable constants of the stream contract (core/random.hpp): any
    // compiler, standard library or kernel backend must reproduce them.
    {
        rng g(20240601);
        EXPECT_EQ(g.next_u64(), 0x1d941fad576fdb4aull);
        EXPECT_EQ(g.next_u64(), 0x2eb5ec8caefd6de7ull);
        EXPECT_EQ(g.next_u64(), 0x2ae84c75ecb8872dull);
        rng zero(0);
        EXPECT_EQ(zero.next_u64(), 0x28e837c5cb41dc3eull);
        EXPECT_EQ(zero.next_u64(), 0xfdfd3a7c3e40f98bull);
    }
    {
        rng g(20240601);
        EXPECT_EQ(g.gaussian(), -0x1.10a8c01f763dp-4);
        EXPECT_EQ(g.gaussian(), 0x1.3dd46d1e9a2p-2);
        EXPECT_EQ(g.gaussian(), 0x1.919c5a45b1976p-3);
    }
    {
        rng g(20240601);
        EXPECT_EQ(g.uniform(-2.0, 6.0), -0x1.135f029544812p+0);
        EXPECT_EQ(g.uniform(-2.0, 6.0), -0x1.14a1373510292p-1);
        EXPECT_EQ(g.uniform(-2.0, 6.0), -0x1.517b38a134778p-1);
    }
    {
        // uniform_int is std::uniform_int_distribution over the generator:
        // pinned here for the standard library this suite builds with.
        rng g(20240601);
        for (const int expect : {113, 180, 165, 842, 86, 753})
            EXPECT_EQ(g.uniform_int(-3, 1000), expect);
    }
}

TEST(Rng, GaussianFillPairsTheStream) {
    // Both outputs of each polar pair land in the fill; its first output of
    // every pair is what gaussian() returns from the same state.
    rng fill(0xF111), one(0xF111);
    std::vector<double> x(6);
    fill.gaussian_fill(x, 2.5);
    EXPECT_EQ(x[0], one.gaussian(0.0, 2.5));
    EXPECT_EQ(x[2], one.gaussian(0.0, 2.5));
    EXPECT_EQ(x[4], one.gaussian(0.0, 2.5));
    EXPECT_EQ(fill.next_u64(), one.next_u64()); // same pairs consumed

    // An odd length consumes as many pairs as the next even one and agrees
    // with it on every sample it writes.
    rng odd(0xF111);
    std::vector<double> y(5);
    odd.gaussian_fill(y, 2.5);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y[i], x[i]) << i;
    rng even(0xF111);
    even.gaussian_fill(x, 2.5);
    EXPECT_EQ(odd.next_u64(), even.next_u64());

    // σ = 0 writes zeros and draws nothing.
    rng quiet(0xF111), twin(0xF111);
    std::vector<double> z(7, 1.0);
    quiet.gaussian_fill(z, 0.0);
    for (const double v : z)
        EXPECT_EQ(v, 0.0);
    EXPECT_EQ(quiet.next_u64(), twin.next_u64());
    EXPECT_THROW(quiet.gaussian_fill(z, -1.0), contract_violation);
}

#if defined(__GLIBCXX__) && !defined(__FP_FAST_FMA)
// The library's distributions never fuse a multiply-add (random.cpp is
// built with -ffp-contract=off); libstdc++'s, instantiated here, match them
// only where the compiler has no fused multiply-add to contract to.

TEST(Rng, GaussianMatchesLibstdcxxPolar) {
    rng ours(0x6A55);
    std::mt19937_64 ref(0x6A55);
    const double means[] = {0.0, 1.5, -3e-12};
    const double sigmas[] = {1.0, 2.0, 3e-12};
    for (int i = 0; i < 300'000; ++i) {
        const double mu = means[i % 3];
        const double sigma = sigmas[(i / 3) % 3];
        std::normal_distribution<double> dist(mu, sigma); // fresh per draw
        const double b = dist(ref);
        const double a = ours.gaussian(mu, sigma);
        if (a != b)
            FAIL() << "draw " << i << ": " << a << " vs " << b;
    }
    // σ = 0 returns the mean and draws nothing: both streams stay aligned.
    EXPECT_EQ(ours.gaussian(4.0, 0.0), 4.0);
    EXPECT_EQ(ours.next_u64(), ref());
}

TEST(Rng, UniformMatchesLibstdcxx) {
    rng ours(0x0F1);
    std::mt19937_64 ref(0x0F1);
    for (int i = 0; i < 100'000; ++i) {
        std::uniform_real_distribution<double> dist(-2.0, 6.0);
        ASSERT_EQ(ours.uniform(-2.0, 6.0), dist(ref)) << "draw " << i;
    }
}

TEST(Rng, GaussianFillIsOnePersistentPolarStream) {
    // One std::normal_distribution kept for the whole fill returns y·mult
    // and then its saved x·mult: the fill's stream, fill after fill (even
    // lengths, so no pair straddles two fills).
    rng ours(0x9A12);
    std::mt19937_64 ref(0x9A12);
    for (const double sigma : {1.0, 3e-12, 0.7}) {
        std::normal_distribution<double> dist(0.0, sigma);
        std::vector<double> x(10'000);
        ours.gaussian_fill(x, sigma);
        for (std::size_t i = 0; i < x.size(); ++i)
            ASSERT_EQ(x[i], dist(ref)) << "sigma " << sigma << " i " << i;
    }
    // An odd fill drops the last x, which the persistent distribution
    // would have returned next.
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<double> x(3);
    ours.gaussian_fill(x, 1.0);
    for (const double v : x)
        EXPECT_EQ(v, dist(ref));
    (void)dist(ref); // the dropped x
    EXPECT_EQ(ours.next_u64(), ref());
}

#endif

} // namespace
