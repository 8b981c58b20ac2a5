#include "adc/clock.hpp"

#include "core/contracts.hpp"

namespace sdrbist::adc {

sampling_clock::sampling_clock(clock_config config, std::uint64_t seed)
    : config_(config), gen_(seed) {
    SDRBIST_EXPECTS(config_.period_s > 0.0);
    SDRBIST_EXPECTS(config_.jitter_rms_s >= 0.0);
}

std::vector<double> sampling_clock::edges(std::size_t n) {
    std::vector<double> t(n);
    gen_.gaussian_fill(t, config_.jitter_rms_s);
    for (std::size_t k = 0; k < n; ++k)
        t[k] = nominal_edge(k) + t[k];
    return t;
}

} // namespace sdrbist::adc
