#include "sampling/pbs.hpp"

#include <cmath>
#include <limits>

#include "core/contracts.hpp"

namespace sdrbist::sampling {

std::vector<pbs_window> alias_free_windows(const band_spec& band,
                                           double fs_min, double fs_max) {
    band.validate();
    SDRBIST_EXPECTS(fs_min >= 0.0);
    SDRBIST_EXPECTS(fs_max > fs_min);

    const double b = band.bandwidth();
    const auto n_max = static_cast<int>(std::floor(band.f_hi / b + 1e-12));

    std::vector<pbs_window> out;
    for (int n = 1; n <= n_max; ++n) {
        const double lo = 2.0 * band.f_hi / static_cast<double>(n);
        const double hi = n == 1 ? std::numeric_limits<double>::infinity()
                                 : 2.0 * band.f_lo / static_cast<double>(n - 1);
        const interval window{std::max(lo, fs_min), std::min(hi, fs_max)};
        if (!window.empty())
            out.push_back({n, window});
    }
    // Windows are generated in decreasing-rate order; flip to ascending.
    std::reverse(out.begin(), out.end());
    return out;
}

bool is_alias_free(const band_spec& band, double fs) {
    band.validate();
    SDRBIST_EXPECTS(fs > 0.0);
    const double b = band.bandwidth();
    const auto n_max = static_cast<int>(std::floor(band.f_hi / b + 1e-12));
    for (int n = 1; n <= n_max; ++n) {
        const double lo = 2.0 * band.f_hi / static_cast<double>(n);
        const double hi = n == 1 ? std::numeric_limits<double>::infinity()
                                 : 2.0 * band.f_lo / static_cast<double>(n - 1);
        if (fs >= lo && fs <= hi)
            return true;
    }
    return false;
}

double min_alias_free_rate(const band_spec& band) {
    band.validate();
    const double b = band.bandwidth();
    const auto n_max = static_cast<int>(std::floor(band.f_hi / b + 1e-12));
    // The lowest window is the n = n_max wedge: fs_min = 2·f_hi / n_max.
    return 2.0 * band.f_hi / static_cast<double>(n_max);
}

} // namespace sdrbist::sampling
