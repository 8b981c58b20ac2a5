/// \file constellation.hpp
/// \brief Gray-mapped linear modulation constellations.
///
/// Multistandard support is the point of the paper's BIST — the same
/// signal path must be testable under any modulation the radio ships.
#pragma once

#include <complex>
#include <span>
#include <string>
#include <vector>

namespace sdrbist::waveform {

/// Supported constellation families (all normalised to unit average power).
enum class modulation {
    bpsk,
    qpsk,
    psk8,
    qam16,
    qam64,
    dqpsk_pi4, ///< pi/4-shifted differential QPSK (TETRA-class radios)
};

/// A constellation: symbol points plus Gray bit mapping.
class constellation {
public:
    explicit constellation(modulation kind);

    /// Bits consumed per symbol (log2 of the constellation size).
    [[nodiscard]] int bits_per_symbol() const { return bits_per_symbol_; }

    /// Number of points.
    [[nodiscard]] std::size_t size() const { return points_.size(); }

    /// Map `bits_per_symbol()` bits (MSB first) to a point.
    [[nodiscard]] std::complex<double> map(std::span<const int> bits) const;

    /// Map a full bit stream to symbols; bit count must be a multiple of
    /// bits_per_symbol().
    [[nodiscard]] std::vector<std::complex<double>>
    map_stream(std::span<const int> bits) const;

    /// All points.
    [[nodiscard]] const std::vector<std::complex<double>>& points() const {
        return points_;
    }

    /// Differential modulations encode bits in symbol-to-symbol phase
    /// rotations; map() of a single symbol is then undefined (use
    /// map_stream, which carries the phase state).
    [[nodiscard]] bool is_differential() const {
        return kind_ == modulation::dqpsk_pi4;
    }

    [[nodiscard]] modulation kind() const { return kind_; }

private:
    modulation kind_;
    int bits_per_symbol_;
    std::vector<std::complex<double>> points_; ///< indexed by symbol value
};

/// Name of a modulation (e.g. "QPSK").
std::string to_string(modulation m);

} // namespace sdrbist::waveform
