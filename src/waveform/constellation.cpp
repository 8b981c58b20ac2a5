#include "waveform/constellation.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::waveform {

namespace {

// Gray code of i.
unsigned gray(unsigned i) { return i ^ (i >> 1); }

// Pulse-amplitude levels for one QAM axis: Gray-mapped, unit spacing 2.
// level index g in [0, m) -> amplitude 2g - (m-1).
std::vector<std::complex<double>> square_qam(int bits) {
    const int m_axis = 1 << (bits / 2); // points per axis
    const auto n = static_cast<std::size_t>(1) << bits;
    std::vector<std::complex<double>> pts(n);
    // Average energy of the unnormalised grid: 2·(m^2-1)/3 per complex dim.
    const double axis_e =
        (static_cast<double>(m_axis) * m_axis - 1.0) / 3.0; // E[a^2] per axis
    const double scale = 1.0 / std::sqrt(2.0 * axis_e);
    for (std::size_t v = 0; v < n; ++v) {
        // Split bits: first half -> I, second half -> Q; Gray-decode so that
        // adjacent grid cells differ in one bit.
        const unsigned hi = static_cast<unsigned>(v) >> (bits / 2);
        const unsigned lo =
            static_cast<unsigned>(v) & ((1u << (bits / 2)) - 1u);
        // Find grid position whose gray code equals the bit pattern.
        auto degray = [](unsigned g) {
            unsigned b = 0;
            for (; g; g >>= 1)
                b ^= g;
            return b;
        };
        const unsigned gi = degray(hi);
        const unsigned gq = degray(lo);
        const double ai = 2.0 * static_cast<double>(gi) - (m_axis - 1);
        const double aq = 2.0 * static_cast<double>(gq) - (m_axis - 1);
        pts[v] = std::complex<double>(ai, aq) * scale;
    }
    return pts;
}

} // namespace

constellation::constellation(modulation kind) : kind_(kind) {
    switch (kind) {
    case modulation::bpsk:
        bits_per_symbol_ = 1;
        points_ = {{1.0, 0.0}, {-1.0, 0.0}};
        break;
    case modulation::qpsk: {
        bits_per_symbol_ = 2;
        // Gray-mapped QPSK on the diagonals, unit energy.
        const double a = 1.0 / std::sqrt(2.0);
        points_.resize(4);
        for (unsigned v = 0; v < 4; ++v) {
            const unsigned g = gray(v);
            const double i = (g & 2u) ? -a : a;
            const double q = (g & 1u) ? -a : a;
            points_[v] = {i, q};
        }
        break;
    }
    case modulation::psk8: {
        bits_per_symbol_ = 3;
        points_.resize(8);
        for (unsigned v = 0; v < 8; ++v)
            points_[v] = std::polar(1.0, two_pi * gray(v) / 8.0 + pi / 8.0);
        break;
    }
    case modulation::qam16:
        bits_per_symbol_ = 4;
        points_ = square_qam(4);
        break;
    case modulation::qam64:
        bits_per_symbol_ = 6;
        points_ = square_qam(6);
        break;
    case modulation::dqpsk_pi4: {
        // Symbols live on an 8-point ring (the union of the two QPSK grids
        // the differential ±pi/4 / ±3pi/4 rotations alternate between).
        bits_per_symbol_ = 2;
        points_.resize(8);
        for (unsigned m = 0; m < 8; ++m)
            points_[m] = std::polar(1.0, pi / 4.0 * static_cast<double>(m));
        break;
    }
    }
    SDRBIST_ENSURES(is_differential() ||
                    points_.size() ==
                        (static_cast<std::size_t>(1) << bits_per_symbol_));
}

std::complex<double> constellation::map(std::span<const int> bits) const {
    SDRBIST_EXPECTS(!is_differential()); // use map_stream (phase state)
    SDRBIST_EXPECTS(bits.size() == static_cast<std::size_t>(bits_per_symbol_));
    std::size_t v = 0;
    for (int b : bits) {
        SDRBIST_EXPECTS(b == 0 || b == 1);
        v = (v << 1) | static_cast<unsigned>(b);
    }
    return points_[v];
}

std::vector<std::complex<double>>
constellation::map_stream(std::span<const int> bits) const {
    SDRBIST_EXPECTS(bits.size() % static_cast<std::size_t>(bits_per_symbol_) ==
                    0);
    const std::size_t n = bits.size() / static_cast<std::size_t>(bits_per_symbol_);
    std::vector<std::complex<double>> out(n);
    if (kind_ == modulation::dqpsk_pi4) {
        // Gray-coded phase increments: 00 -> +pi/4, 01 -> +3pi/4,
        // 11 -> -3pi/4, 10 -> -pi/4 (TETRA convention).
        long step_acc = 1; // phase in units of pi/4, start at pi/4
        for (std::size_t s = 0; s < n; ++s) {
            const int b0 = bits[2 * s];
            const int b1 = bits[2 * s + 1];
            SDRBIST_EXPECTS((b0 == 0 || b0 == 1) && (b1 == 0 || b1 == 1));
            long step;
            if (b0 == 0 && b1 == 0)
                step = 1; // +pi/4
            else if (b0 == 0 && b1 == 1)
                step = 3; // +3pi/4
            else if (b0 == 1 && b1 == 1)
                step = -3; // -3pi/4
            else
                step = -1; // -pi/4
            step_acc = ((step_acc + step) % 8 + 8) % 8;
            out[s] = points_[static_cast<std::size_t>(step_acc)];
        }
        return out;
    }
    for (std::size_t s = 0; s < n; ++s)
        out[s] = map(bits.subspan(s * bits_per_symbol_,
                                  static_cast<std::size_t>(bits_per_symbol_)));
    return out;
}

std::string to_string(modulation m) {
    switch (m) {
    case modulation::bpsk:
        return "BPSK";
    case modulation::qpsk:
        return "QPSK";
    case modulation::psk8:
        return "8-PSK";
    case modulation::qam16:
        return "16-QAM";
    case modulation::qam64:
        return "64-QAM";
    case modulation::dqpsk_pi4:
        return "pi/4-DQPSK";
    }
    return "unknown";
}

} // namespace sdrbist::waveform
