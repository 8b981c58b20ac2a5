/// \file response_yardstick.hpp
/// \brief Frequency responses of the library's filters, evaluated directly
///        from their coefficients: the yardsticks the FIR and Butterworth
///        designs are checked against.
#pragma once

#include <complex>
#include <span>

#include "core/units.hpp"
#include "dsp/biquad.hpp"

namespace sdrbist::testing {

/// H(e^{j2πf}) of an FIR at normalised frequency f (cycles/sample).
inline std::complex<double> fir_response(std::span<const double> h,
                                         double f_norm) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t n = 0; n < h.size(); ++n)
        acc += h[n] *
               std::polar(1.0, -two_pi * f_norm * static_cast<double>(n));
    return acc;
}

/// Response of one biquad section at normalised frequency f.
inline std::complex<double> biquad_response(const dsp::biquad& s,
                                            double f_norm) {
    const std::complex<double> z1 = std::polar(1.0, -two_pi * f_norm);
    const std::complex<double> z2 = z1 * z1;
    return (s.b0 + s.b1 * z1 + s.b2 * z2) / (1.0 + s.a1 * z1 + s.a2 * z2);
}

/// Cascade response: the product of its sections' responses.
inline std::complex<double> cascade_response(const dsp::iir_cascade& c,
                                             double f_norm) {
    std::complex<double> h{1.0, 0.0};
    for (const auto& s : c.sections())
        h *= biquad_response(s, f_norm);
    return h;
}

} // namespace sdrbist::testing
