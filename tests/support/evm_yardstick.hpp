/// \file evm_yardstick.hpp
/// \brief Closed-form SRRC matched filter: the reference the tabulated
///        `waveform::srrc_matched_filter` is bounded against.
///
/// The same window arithmetic as the table (samples inside
/// t_centre ± matched_span_symbols·Ts, clamped to the record), with
/// `srrc_value` evaluated at every sample.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>

#include "waveform/evm.hpp"
#include "waveform/srrc.hpp"

namespace sdrbist::testing {

struct matched_sum {
    std::complex<double> value; ///< Σ env[n]·h(u_n) / (fs·Ts)
    double abs_sum = 0.0;       ///< Σ |env[n]·h(u_n)| / (fs·Ts)
    double env_sum = 0.0;       ///< Σ |env[n]| / (fs·Ts)
};

/// Continuous-time matched filtering: correlate the envelope with the SRRC
/// centred at t_centre, u_n = (n/fs - t_centre)/Ts.  With the closed-form
/// SRRC normalised so that ∫ srrc²(u) du = 1 (u in symbol periods), the
/// output approximates the transmitted symbol scaled by the channel's
/// complex gain.  `abs_sum` and `env_sum` are the scales the table's
/// error is bounded against.
inline matched_sum matched_output(std::span<const std::complex<double>> env,
                                  double fs, double t_centre,
                                  double symbol_period, double rolloff) {
    const double span = waveform::matched_span_symbols;
    const double t_lo = t_centre - span * symbol_period;
    const double t_hi = t_centre + span * symbol_period;
    auto n_lo = static_cast<long>(std::ceil(t_lo * fs));
    auto n_hi = static_cast<long>(std::floor(t_hi * fs));
    n_lo = std::max<long>(n_lo, 0);
    n_hi = std::min<long>(n_hi, static_cast<long>(env.size()) - 1);
    std::complex<double> acc{0.0, 0.0};
    double mag = 0.0;
    double env_mag = 0.0;
    for (long n = n_lo; n <= n_hi; ++n) {
        const double u =
            (static_cast<double>(n) / fs - t_centre) / symbol_period;
        const auto x = env[static_cast<std::size_t>(n)];
        const auto term = x * waveform::srrc_value(u, rolloff);
        acc += term;
        mag += std::abs(term);
        env_mag += std::abs(x);
    }
    // Riemann sum dt / Ts converts to symbol-period units.
    const double scale = fs * symbol_period;
    return {acc / scale, mag / scale, env_mag / scale};
}

} // namespace sdrbist::testing
