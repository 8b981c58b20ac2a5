#include "dsp/biquad.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::dsp {

std::vector<std::complex<double>>
iir_cascade::filter(std::span<const std::complex<double>> x) const {
    // I and Q run through the sections together, each channel with its own
    // direct-form-II-transposed delay line and the same expression order,
    // so the two latency-bound recurrences overlap.
    struct delay {
        double z1i = 0.0, z2i = 0.0, z1q = 0.0, z2q = 0.0;
    };
    std::vector<delay> state(sections_.size());
    std::vector<std::complex<double>> y(x.size());
    for (std::size_t n = 0; n < x.size(); ++n) {
        double xi = x[n].real();
        double xq = x[n].imag();
        for (std::size_t i = 0; i < sections_.size(); ++i) {
            const biquad& s = sections_[i];
            delay& d = state[i];
            const double yi = s.b0 * xi + d.z1i;
            const double yq = s.b0 * xq + d.z1q;
            d.z1i = s.b1 * xi - s.a1 * yi + d.z2i;
            d.z1q = s.b1 * xq - s.a1 * yq + d.z2q;
            d.z2i = s.b2 * xi - s.a2 * yi;
            d.z2q = s.b2 * xq - s.a2 * yq;
            xi = yi;
            xq = yq;
        }
        y[n] = {xi, xq};
    }
    return y;
}

// Bilinear transform of the analog prototype H(s) = wc^N / prod(s - p_k)
// with pre-warping so the -3 dB point lands exactly at cutoff_hz.
iir_cascade butterworth_lowpass(int order, double cutoff_hz, double fs) {
    SDRBIST_EXPECTS(order >= 1 && order <= 12);
    SDRBIST_EXPECTS(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0);

    const double k = 2.0 * fs;                          // bilinear constant
    const double wc = k * std::tan(pi * cutoff_hz / fs); // pre-warped rad/s

    std::vector<biquad> sections;
    // Conjugate pole pairs of the Butterworth circle.
    for (int i = 0; i < order / 2; ++i) {
        const double theta =
            pi * (2.0 * i + 1.0) / (2.0 * static_cast<double>(order)) +
            pi / 2.0;
        // Analog pair: s^2 - 2·wc·cos(theta)·s + wc^2 (cos(theta) < 0).
        const double a = -2.0 * wc * std::cos(theta);
        const double b = wc * wc;
        // Bilinear: s = k·(1 - z^-1)/(1 + z^-1).
        const double den = k * k + a * k + b;
        biquad s;
        s.b0 = b / den;
        s.b1 = 2.0 * b / den;
        s.b2 = b / den;
        s.a1 = (2.0 * b - 2.0 * k * k) / den;
        s.a2 = (k * k - a * k + b) / den;
        sections.push_back(s);
    }
    if (order % 2 == 1) {
        // Real pole at s = -wc.
        const double den = k + wc;
        biquad s;
        s.b0 = wc / den;
        s.b1 = wc / den;
        s.a1 = (wc - k) / den;
        sections.push_back(s);
    }
    return iir_cascade(std::move(sections));
}

} // namespace sdrbist::dsp
