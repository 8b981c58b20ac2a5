#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace sdrbist {

double rms(std::span<const double> x) {
    SDRBIST_EXPECTS(!x.empty());
    double s = 0.0;
    for (double v : x)
        s += v * v;
    return std::sqrt(s / static_cast<double>(x.size()));
}

double relative_rms_error(std::span<const double> ref,
                          std::span<const double> est) {
    SDRBIST_EXPECTS(!ref.empty());
    SDRBIST_EXPECTS(ref.size() == est.size());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        num += (est[i] - ref[i]) * (est[i] - ref[i]);
        den += ref[i] * ref[i];
    }
    SDRBIST_EXPECTS(den > 0.0);
    return std::sqrt(num / den);
}

double percentile(std::span<const double> x, double p) {
    SDRBIST_EXPECTS(!x.empty());
    SDRBIST_EXPECTS(p >= 0.0 && p <= 100.0);
    std::vector<double> sorted(x.begin(), x.end());
    std::sort(sorted.begin(), sorted.end());
    const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

} // namespace sdrbist
