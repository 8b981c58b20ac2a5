#include "dsp/biquad.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::dsp {

iir_cascade::iir_cascade(std::vector<biquad> sections)
    : sections_(std::move(sections)), state_(sections_.size(), {0.0, 0.0}) {}

double iir_cascade::process(double x) {
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        const biquad& s = sections_[i];
        auto& [z1, z2] = state_[i];
        const double y = s.b0 * x + z1;
        z1 = s.b1 * x - s.a1 * y + z2;
        z2 = s.b2 * x - s.a2 * y;
        x = y;
    }
    return x;
}

std::vector<double> iir_cascade::filter(std::span<const double> x) {
    reset();
    std::vector<double> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] = process(x[i]);
    return y;
}

std::vector<std::complex<double>>
iir_cascade::filter(std::span<const std::complex<double>> x) {
    std::vector<double> re(x.size()), im(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        re[i] = x[i].real();
        im[i] = x[i].imag();
    }
    const auto yre = filter(re);
    const auto yim = filter(im);
    std::vector<std::complex<double>> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] = {yre[i], yim[i]};
    return y;
}

void iir_cascade::reset() {
    for (auto& s : state_)
        s = {0.0, 0.0};
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
