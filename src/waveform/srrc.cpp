#include "waveform/srrc.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::waveform {

double srrc_value(double t, double a) {
    SDRBIST_EXPECTS(a > 0.0 && a <= 1.0);
    const double at = std::abs(t);
    if (at < 1e-9) {
        // h(0) = 1 - a + 4a/pi.
        return 1.0 - a + 4.0 * a / pi;
    }
    const double sing = 1.0 / (4.0 * a);
    if (std::abs(at - sing) < 1e-9) {
        // Removable singularity at |t| = 1/(4a).
        const double c = a / std::sqrt(2.0);
        return c * ((1.0 + 2.0 / pi) * std::sin(pi / (4.0 * a)) +
                    (1.0 - 2.0 / pi) * std::cos(pi / (4.0 * a)));
    }
    const double num = std::sin(pi * t * (1.0 - a)) +
                       4.0 * a * t * std::cos(pi * t * (1.0 + a));
    const double den = pi * t * (1.0 - 16.0 * a * a * t * t);
    return num / den;
}

std::vector<double> srrc_taps(double rolloff, std::size_t oversample,
                              std::size_t span_symbols) {
    SDRBIST_EXPECTS(oversample >= 2);
    SDRBIST_EXPECTS(span_symbols >= 2);
    const std::size_t half = span_symbols * oversample;
    std::vector<double> h(2 * half + 1);
    for (std::size_t i = 0; i < h.size(); ++i) {
        const double t = (static_cast<double>(i) - static_cast<double>(half)) /
                         static_cast<double>(oversample);
        h[i] = srrc_value(t, rolloff);
    }
    // Unit energy: matched-filter cascade then has unit gain at symbol peaks.
    double e = 0.0;
    for (double v : h)
        e += v * v;
    const double scale = 1.0 / std::sqrt(e);
    for (double& v : h)
        v *= scale;
    return h;
}

} // namespace sdrbist::waveform
