// LFSR PRBS source tests.
#include <gtest/gtest.h>

#include "core/contracts.hpp"
#include "waveform/prbs.hpp"

namespace {

using namespace sdrbist::waveform;

TEST(Prbs, DeterministicForSameSeed) {
    prbs_generator a(prbs_order::prbs15, 0x1234);
    prbs_generator b(prbs_order::prbs15, 0x1234);
    EXPECT_EQ(a.bits(500), b.bits(500));
}

TEST(Prbs, DifferentSeedsDiffer) {
    prbs_generator a(prbs_order::prbs15, 1);
    prbs_generator b(prbs_order::prbs15, 2);
    EXPECT_NE(a.bits(200), b.bits(200));
}

TEST(Prbs, MaximalLengthPeriodPrbs7) {
    // A maximal-length LFSR repeats after exactly 2^7 - 1 = 127 bits.
    prbs_generator g(prbs_order::prbs7, 1);
    const auto first = g.bits(127);
    const auto second = g.bits(127);
    EXPECT_EQ(first, second);
    // And not earlier: the first half must differ from the second half.
    const std::vector<int> a(first.begin(), first.begin() + 63);
    const std::vector<int> b(first.begin() + 63, first.begin() + 126);
    EXPECT_NE(a, b);
}

TEST(Prbs, MaximalLengthPeriodPrbs9) {
    prbs_generator g(prbs_order::prbs9, 0x55);
    const auto first = g.bits(511);
    const auto second = g.bits(511);
    EXPECT_EQ(first, second);
}

TEST(Prbs, BalancedOnesAndZeros) {
    // A maximal-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
    prbs_generator g(prbs_order::prbs7, 1);
    const auto bits = g.bits(127);
    int ones = 0;
    for (int b : bits)
        ones += b;
    EXPECT_EQ(ones, 64);
}

TEST(Prbs, AllOrdersProduceValidBits) {
    for (auto order : {prbs_order::prbs7, prbs_order::prbs9,
                       prbs_order::prbs15, prbs_order::prbs23,
                       prbs_order::prbs31}) {
        prbs_generator g(order, 0xACE1);
        for (int b : g.bits(100))
            EXPECT_TRUE(b == 0 || b == 1);
    }
}

TEST(Prbs, RunLengthStatistics) {
    // In a maximal-length sequence, about half the runs have length 1.
    prbs_generator g(prbs_order::prbs15, 7);
    const auto bits = g.bits(32767);
    int runs = 0, runs_len1 = 0;
    int run = 1;
    for (std::size_t i = 1; i < bits.size(); ++i) {
        if (bits[i] == bits[i - 1]) {
            ++run;
        } else {
            ++runs;
            runs_len1 += run == 1 ? 1 : 0;
            run = 1;
        }
    }
    EXPECT_NEAR(static_cast<double>(runs_len1) / runs, 0.5, 0.02);
}

TEST(Prbs, ZeroSeedRejected) {
    EXPECT_THROW(prbs_generator(prbs_order::prbs7, 0),
                 sdrbist::contract_violation);
}

} // namespace
