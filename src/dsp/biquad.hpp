/// \file biquad.hpp
/// \brief Biquad IIR sections and the Butterworth lowpass design (bilinear
///        transform).
///
/// Models the analog anti-image lowpass after the Tx DACs and (baseband
/// equivalent of) the RF band-select filter: both are smooth maximally-flat
/// responses well captured by low-order Butterworth prototypes.  The
/// cascade's frequency response, which tests check the design against, is
/// the yardstick `testing::cascade_response`, and its one-channel
/// recurrence, which tests check the filter against, is
/// `testing::cascade_filter_channel` (tests/support/).
#pragma once

#include <complex>
#include <span>
#include <utility>
#include <vector>

namespace sdrbist::dsp {

/// One direct-form-II-transposed biquad section:
///   y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] - a1·y[n-1] - a2·y[n-2]
struct biquad {
    double b0 = 1.0, b1 = 0.0, b2 = 0.0;
    double a1 = 0.0, a2 = 0.0;
};

/// Cascade of biquad sections.
class iir_cascade {
public:
    iir_cascade() = default;
    explicit iir_cascade(std::vector<biquad> sections)
        : sections_(std::move(sections)) {}

    /// Filter a complex sequence from cleared delay lines, I and Q
    /// identically: each channel's output is the cascade's recurrence run
    /// on that channel alone, bit for bit.  The cascade keeps no state
    /// between calls.
    [[nodiscard]] std::vector<std::complex<double>>
    filter(std::span<const std::complex<double>> x) const;

    [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
    [[nodiscard]] const std::vector<biquad>& sections() const {
        return sections_;
    }

private:
    std::vector<biquad> sections_;
};

/// Butterworth lowpass of the given order with -3 dB cutoff `cutoff_hz`,
/// discretised at rate `fs` by the pre-warped bilinear transform.
/// Preconditions: order in [1, 12], 0 < cutoff_hz < fs/2.
iir_cascade butterworth_lowpass(int order, double cutoff_hz, double fs);

} // namespace sdrbist::dsp
