// Window-function properties used by FIR design and kernel truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "dsp/window.hpp"

namespace {

using namespace sdrbist::dsp;

TEST(Windows, SymmetryAndPeak) {
    for (auto kind : {window_kind::hann, window_kind::hamming,
                      window_kind::blackman, window_kind::kaiser}) {
        const auto w = make_window(kind, 65, 8.0);
        ASSERT_EQ(w.size(), 65u);
        for (std::size_t i = 0; i < w.size(); ++i)
            EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12)
                << to_string(kind) << " i=" << i;
        // Peak at centre, normalised to <= 1 with max == centre.
        const double centre = w[32];
        for (double v : w) {
            EXPECT_LE(v, centre + 1e-12);
            EXPECT_GE(v, -1e-12);
        }
    }
}

TEST(Windows, RectangularIsAllOnes) {
    const auto w = make_window(window_kind::rectangular, 17);
    for (double v : w)
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Windows, HannEndsAtZero) {
    const auto w = make_window(window_kind::hann, 33);
    EXPECT_NEAR(w.front(), 0.0, 1e-12);
    EXPECT_NEAR(w.back(), 0.0, 1e-12);
    EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(Windows, KaiserBetaZeroIsRectangular) {
    const auto w = kaiser_window(21, 0.0);
    for (double v : w)
        EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Windows, KaiserEdgesDropWithBeta) {
    const auto w4 = kaiser_window(33, 4.0);
    const auto w12 = kaiser_window(33, 12.0);
    EXPECT_GT(w4.front(), w12.front());
    EXPECT_NEAR(w4[16], 1.0, 1e-12);
    EXPECT_NEAR(w12[16], 1.0, 1e-12);
}

TEST(Windows, KaiserBetaFormulaRegions) {
    EXPECT_NEAR(kaiser_beta_for_attenuation(13.0), 0.0, 1e-12);
    EXPECT_NEAR(kaiser_beta_for_attenuation(60.0), 0.1102 * (60.0 - 8.7),
                1e-9);
    const double a30 = kaiser_beta_for_attenuation(30.0);
    EXPECT_GT(a30, 1.0);
    EXPECT_LT(a30, 4.0);
}

TEST(Windows, ContinuousKaiserMatchesDiscrete) {
    // kaiser_window_at(u) sampled at tap positions equals kaiser_window.
    const std::size_t n = 41;
    const double beta = 8.0;
    const auto w = kaiser_window(n, beta);
    const double half = static_cast<double>(n - 1) / 2.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) - half) / half;
        EXPECT_NEAR(kaiser_window_at(u, beta), w[i], 1e-12) << "i=" << i;
    }
    EXPECT_DOUBLE_EQ(kaiser_window_at(1.5, beta), 0.0);
    EXPECT_DOUBLE_EQ(kaiser_window_at(-2.0, beta), 0.0);
}

TEST(Windows, SumsAndPower) {
    const auto w = make_window(window_kind::hann, 64);
    EXPECT_NEAR(window_sum(w), 31.5, 0.2);      // ~N/2 for Hann
    EXPECT_NEAR(window_power(w), 23.6, 0.5);    // ~3N/8 for Hann
}

TEST(Windows, SingleElementAndErrors) {
    const auto w = make_window(window_kind::kaiser, 1, 8.0);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
    EXPECT_THROW(make_window(window_kind::hann, 0),
                 sdrbist::contract_violation);
    EXPECT_THROW(kaiser_window(8, -1.0), sdrbist::contract_violation);
}

TEST(KaiserLut, SharedTableEqualsFreshBuild) {
    for (const double beta : {0.0, 3.5, 8.0, 10.0})
        for (const std::size_t res : {std::size_t{16}, std::size_t{2048}}) {
            const kaiser_lut lut(beta, res);
            const auto fresh = kaiser_lut::build_table(beta, res);
            const auto shared = lut.table();
            ASSERT_EQ(shared.size(), res + 1);
            ASSERT_EQ(fresh.size(), res + 1);
            // The exact samples the table promises, built independently.
            const double inv_i0b = 1.0 / sdrbist::bessel_i0(beta);
            for (std::size_t i = 0; i <= res; ++i) {
                const double u =
                    static_cast<double>(i) / static_cast<double>(res);
                const double direct =
                    sdrbist::bessel_i0(beta *
                                       std::sqrt(std::max(0.0, 1.0 - u * u))) *
                    inv_i0b;
                EXPECT_EQ(shared[i], fresh[i]) << "beta=" << beta << " i=" << i;
                EXPECT_EQ(shared[i], direct) << "beta=" << beta << " i=" << i;
            }
        }
}

TEST(KaiserLut, EqualParametersShareOneTable) {
    const kaiser_lut a(8.0);
    const kaiser_lut b(8.0);
    const kaiser_lut copy = a;
    EXPECT_EQ(a.table().data(), b.table().data());
    EXPECT_EQ(a.table().data(), copy.table().data());
    EXPECT_DOUBLE_EQ(a(0.3), b(0.3));

    const kaiser_lut other_beta(8.5);
    const kaiser_lut other_res(8.0, 1024);
    EXPECT_NE(a.table().data(), other_beta.table().data());
    EXPECT_NE(a.table().data(), other_res.table().data());
    EXPECT_EQ(other_res.resolution(), 1024u);
    EXPECT_NE(a(0.7), other_beta(0.7));
}

TEST(KaiserLut, ConcurrentConstructionSharesOneTable) {
    // A key no other test uses, so the eight threads race on its first
    // build.
    constexpr int n_threads = 8;
    std::vector<const double*> seen(n_threads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < n_threads) {
            }
            const kaiser_lut lut(6.125, 4096);
            seen[static_cast<std::size_t>(t)] = lut.table().data();
        });
    for (auto& th : threads)
        th.join();
    for (const double* p : seen)
        EXPECT_EQ(p, seen.front());
    EXPECT_EQ(kaiser_lut(6.125, 4096).table().data(), seen.front());
}

TEST(KaiserLut, Preconditions) {
    EXPECT_THROW(kaiser_lut(-1.0), sdrbist::contract_violation);
    EXPECT_THROW(kaiser_lut(8.0, 15), sdrbist::contract_violation);
}

} // namespace
