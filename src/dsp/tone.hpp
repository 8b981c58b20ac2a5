/// \file tone.hpp
/// \brief IEEE-1057-style three-parameter sine fitting.
///
/// The Jamal-style time-skew baseline estimates per-channel phase of a known
/// test sinusoid; the sine fit here is its measurement core.
#pragma once

#include <span>

namespace sdrbist::dsp {

/// Result of a three-parameter least-squares sine fit
/// x[n] ≈ amplitude·cos(2π·f_norm·n + phase) + offset.
struct sine_fit_result {
    double amplitude = 0.0;
    double phase = 0.0; ///< radians, in (-pi, pi]
    double offset = 0.0;
    double residual_rms = 0.0; ///< RMS of fit residual
};

/// Three-parameter (known-frequency) least-squares sine fit, IEEE 1057.
/// Precondition: x.size() >= 4, 0 < f_norm < 0.5.
sine_fit_result sine_fit_3param(std::span<const double> x, double f_norm);

} // namespace sdrbist::dsp
