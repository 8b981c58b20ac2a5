/// \file sample_stats.hpp
/// \brief Sample moments that tests grade results with.
///
/// The library keeps only the statistics its programs read
/// (`rms`, `relative_rms_error`, `percentile` in core/stats.hpp); these
/// are the checks tests make on noise, jitter and estimator spread.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "core/contracts.hpp"

namespace sdrbist::testing {

/// Arithmetic mean.  Precondition: !x.empty().
inline double mean(std::span<const double> x) {
    SDRBIST_EXPECTS(!x.empty());
    double s = 0.0;
    for (double v : x)
        s += v;
    return s / static_cast<double>(x.size());
}

/// Unbiased sample variance.  Precondition: x.size() >= 2.
inline double variance(std::span<const double> x) {
    SDRBIST_EXPECTS(x.size() >= 2);
    const double m = mean(x);
    double s = 0.0;
    for (double v : x)
        s += (v - m) * (v - m);
    return s / static_cast<double>(x.size() - 1);
}

/// Standard deviation (sqrt of unbiased variance).
inline double stddev(std::span<const double> x) {
    return std::sqrt(variance(x));
}

/// Largest absolute value (0 for empty input).
inline double max_abs(std::span<const double> x) {
    double m = 0.0;
    for (double v : x)
        m = std::max(m, std::abs(v));
    return m;
}

} // namespace sdrbist::testing
