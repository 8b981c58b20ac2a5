/// \file response_yardstick.hpp
/// \brief Frequency responses of the library's filters, evaluated directly
///        from their coefficients: the yardsticks the FIR and Butterworth
///        designs are checked against; and the biquad cascade's plain
///        one-channel recurrence, the yardstick of its complex filter.
#pragma once

#include <complex>
#include <utility>
#include <span>
#include <vector>

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

/// One real channel through the cascade from cleared delay lines, sample
/// by sample through every section (direct form II transposed):
///   y = b0·x + z1;  z1 = b1·x − a1·y + z2;  z2 = b2·x − a2·y.
inline std::vector<double> cascade_filter_channel(const dsp::iir_cascade& c,
                                                  std::span<const double> x) {
    std::vector<std::pair<double, double>> z(c.section_count(), {0.0, 0.0});
    std::vector<double> out(x.size());
    for (std::size_t n = 0; n < x.size(); ++n) {
        double v = x[n];
        for (std::size_t i = 0; i < z.size(); ++i) {
            const dsp::biquad& s = c.sections()[i];
            auto& [z1, z2] = z[i];
            const double y = s.b0 * v + z1;
            z1 = s.b1 * v - s.a1 * y + z2;
            z2 = s.b2 * v - s.a2 * y;
            v = y;
        }
        out[n] = v;
    }
    return out;
}

} // namespace sdrbist::testing
