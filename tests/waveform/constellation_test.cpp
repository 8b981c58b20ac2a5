// Constellation mapping tests: energy normalisation, Gray property,
// mapping/demapping round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "waveform/constellation.hpp"

namespace {

using namespace sdrbist::waveform;

/// Nearest-point hard decision: the index of the point closest to r.
std::size_t demap(const constellation& con, std::complex<double> r) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < con.size(); ++i) {
        const double d = std::norm(r - con.points()[i]);
        if (d < best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

/// Minimum distance between distinct points.
double min_distance(const constellation& con) {
    const auto& pts = con.points();
    double d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = i + 1; j < pts.size(); ++j)
            d = std::min(d, std::abs(pts[i] - pts[j]));
    return d;
}

class AllModulations : public ::testing::TestWithParam<modulation> {};

TEST_P(AllModulations, UnitAveragePower) {
    const constellation con(GetParam());
    double p = 0.0;
    for (const auto& pt : con.points())
        p += std::norm(pt);
    p /= static_cast<double>(con.size());
    EXPECT_NEAR(p, 1.0, 1e-12) << to_string(GetParam());
}

TEST_P(AllModulations, SizeMatchesBits) {
    const constellation con(GetParam());
    EXPECT_EQ(con.size(), 1u << con.bits_per_symbol());
}

TEST_P(AllModulations, MapDemapRoundTrip) {
    const constellation con(GetParam());
    const int n_bits = con.bits_per_symbol();
    for (std::size_t v = 0; v < con.size(); ++v) {
        std::vector<int> bits(static_cast<std::size_t>(n_bits));
        for (int b = 0; b < n_bits; ++b) // MSB first
            bits[static_cast<std::size_t>(b)] =
                static_cast<int>((v >> (n_bits - 1 - b)) & 1u);
        EXPECT_EQ(demap(con, con.map(bits)), v) << to_string(GetParam());
    }
}

TEST_P(AllModulations, DemapWithSmallNoiseIsStable) {
    const constellation con(GetParam());
    const double eps = 0.2 * min_distance(con);
    for (std::size_t v = 0; v < con.size(); ++v) {
        const auto noisy =
            con.points()[v] + std::complex<double>(eps, -eps / 2);
        EXPECT_EQ(demap(con, noisy), v);
    }
}

TEST_P(AllModulations, PointsAreDistinct) {
    const constellation con(GetParam());
    EXPECT_GT(min_distance(con), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllModulations,
                         ::testing::Values(modulation::bpsk, modulation::qpsk,
                                           modulation::psk8, modulation::qam16,
                                           modulation::qam64),
                         [](const auto& info) {
                             return to_string(info.param) == "8-PSK"
                                        ? std::string("psk8")
                                    : to_string(info.param) == "16-QAM"
                                        ? std::string("qam16")
                                    : to_string(info.param) == "64-QAM"
                                        ? std::string("qam64")
                                        : to_string(info.param);
                         });

TEST(Constellation, KnownMinDistances) {
    EXPECT_NEAR(min_distance(constellation(modulation::bpsk)), 2.0, 1e-12);
    EXPECT_NEAR(min_distance(constellation(modulation::qpsk)), std::sqrt(2.0),
                1e-12);
    // 16-QAM unit power: spacing 2/sqrt(10).
    EXPECT_NEAR(min_distance(constellation(modulation::qam16)),
                2.0 / std::sqrt(10.0), 1e-12);
}

TEST(Constellation, GrayNeighboursDifferInOneBit) {
    // For QAM grids, horizontally/vertically adjacent points must differ in
    // exactly one mapped bit (the Gray property that minimises BER).
    for (auto kind : {modulation::qam16, modulation::qam64}) {
        const constellation con(kind);
        const double spacing = min_distance(con);
        int checked = 0;
        for (std::size_t i = 0; i < con.size(); ++i) {
            for (std::size_t j = i + 1; j < con.size(); ++j) {
                const auto& pts = con.points();
                if (std::abs(std::abs(pts[i] - pts[j]) - spacing) < 1e-9) {
                    const auto diff = i ^ j;
                    EXPECT_EQ(__builtin_popcountll(diff), 1)
                        << to_string(kind) << " " << i << "," << j;
                    ++checked;
                }
            }
        }
        EXPECT_GT(checked, 10);
    }
}

TEST(Constellation, MapStreamConsumesBitsInOrder) {
    const constellation con(modulation::qpsk);
    const std::vector<int> bits{0, 0, 0, 1, 1, 0, 1, 1};
    const auto symbols = con.map_stream(bits);
    ASSERT_EQ(symbols.size(), 4u);
    EXPECT_EQ(symbols[0], con.points()[0]);
    EXPECT_EQ(symbols[1], con.points()[1]);
    EXPECT_EQ(symbols[2], con.points()[2]);
    EXPECT_EQ(symbols[3], con.points()[3]);
}

TEST(Constellation, Preconditions) {
    const constellation con(modulation::qpsk);
    const std::vector<int> three{0, 1, 0};
    EXPECT_THROW(con.map_stream(three), sdrbist::contract_violation);
    const std::vector<int> bad{0, 2};
    EXPECT_THROW(static_cast<void>(con.map(bad)),
                 sdrbist::contract_violation);
}

} // namespace
