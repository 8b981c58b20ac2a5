/// \file prbs.hpp
/// \brief Maximal-length LFSR pseudo-random bit sequences (PRBS).
///
/// Production BIST stimuli must be repeatable bit-exactly across captures —
/// the dual-rate skew estimator relies on re-playing the *same* waveform —
/// so data comes from deterministic PRBS generators rather than an RNG.
#pragma once

#include <cstdint>
#include <vector>

namespace sdrbist::waveform {

/// Standard PRBS polynomial orders (ITU-T O.150 family).
enum class prbs_order {
    prbs7,  ///< x^7 + x^6 + 1
    prbs9,  ///< x^9 + x^5 + 1
    prbs15, ///< x^15 + x^14 + 1
    prbs23, ///< x^23 + x^18 + 1
    prbs31, ///< x^31 + x^28 + 1
};

/// Fibonacci LFSR producing a maximal-length bit sequence.
class prbs_generator {
public:
    /// \param order polynomial selection
    /// \param seed  non-zero initial register state (low bits used)
    explicit prbs_generator(prbs_order order, std::uint32_t seed = 1);

    /// Next bit (0/1).
    int next_bit();

    /// Generate n bits.
    std::vector<int> bits(std::size_t n);

    /// Register width in bits.
    [[nodiscard]] int order() const { return nbits_; }

private:
    std::uint32_t state_;
    int nbits_;
    int tap_; ///< second feedback tap position (1-based from LSB side)
};

} // namespace sdrbist::waveform
