#include "dsp/tone.hpp"

#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::dsp {

sine_fit_result sine_fit_3param(std::span<const double> x, double f_norm) {
    SDRBIST_EXPECTS(x.size() >= 4);
    SDRBIST_EXPECTS(f_norm > 0.0 && f_norm < 0.5);
    const std::size_t n = x.size();

    // Least squares on x[n] = A·cos(wn) + B·sin(wn) + C via normal equations.
    double scc = 0.0, sss = 0.0, scs = 0.0, sc = 0.0, ss = 0.0;
    double xc = 0.0, xs = 0.0, sx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double w = two_pi * f_norm * static_cast<double>(i);
        const double c = std::cos(w);
        const double s = std::sin(w);
        scc += c * c;
        sss += s * s;
        scs += c * s;
        sc += c;
        ss += s;
        xc += x[i] * c;
        xs += x[i] * s;
        sx += x[i];
    }
    const double nn = static_cast<double>(n);
    // Solve the symmetric 3x3 system
    //   [scc scs sc ] [A]   [xc]
    //   [scs sss ss ] [B] = [xs]
    //   [sc  ss  nn ] [C]   [sx]
    // with Cramer's rule (well-conditioned for 0 < f < 0.5 and n >= 4).
    const double det = scc * (sss * nn - ss * ss) - scs * (scs * nn - ss * sc) +
                       sc * (scs * ss - sss * sc);
    SDRBIST_EXPECTS(std::abs(det) > 1e-12);
    const double det_a = xc * (sss * nn - ss * ss) -
                         scs * (xs * nn - ss * sx) + sc * (xs * ss - sss * sx);
    const double det_b = scc * (xs * nn - ss * sx) - xc * (scs * nn - ss * sc) +
                         sc * (scs * sx - xs * sc);
    const double det_c = scc * (sss * sx - xs * ss) -
                         scs * (scs * sx - xs * sc) + xc * (scs * ss - sss * sc);
    const double a = det_a / det;
    const double b = det_b / det;
    const double c = det_c / det;

    sine_fit_result out;
    out.amplitude = std::hypot(a, b);
    // x = A·cos(wn) + B·sin(wn) = amp·cos(wn + phase), phase = atan2(-B, A).
    out.phase = std::atan2(-b, a);
    out.offset = c;
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double w = two_pi * f_norm * static_cast<double>(i);
        const double fit = a * std::cos(w) + b * std::sin(w) + c;
        res += (x[i] - fit) * (x[i] - fit);
    }
    out.residual_rms = std::sqrt(res / nn);
    return out;
}

} // namespace sdrbist::dsp
