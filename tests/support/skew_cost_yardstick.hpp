/// \file skew_cost_yardstick.hpp
/// \brief The dual-rate cost evaluated directly (paper eqs. (7)/(8)): both
///        captures reconstructed under D̂ at every probe, once per
///        evaluation.  The reference the factored `calib::dual_rate_cost`
///        is bounded against.
#pragma once

#include <cstddef>
#include <span>

#include "calib/dual_rate.hpp"
#include "core/contracts.hpp"
#include "sampling/pnbs.hpp"

namespace sdrbist::testing {

/// Mean squared difference between the rate-B and rate-B1 reconstructions
/// under hypothesis D̂, evaluated at the given probe times.
///
/// Preconditions: D̂ stable for both bands; probes within the valid spans
/// of both reconstructors.
inline double skew_cost_reference(const calib::dual_rate_capture& capture,
                                  double delay_hypothesis,
                                  std::span<const double> probe_times,
                                  const sampling::pnbs_options& opt = {}) {
    SDRBIST_EXPECTS(!probe_times.empty());

    const sampling::pnbs_reconstructor fast(
        capture.fast.even, capture.fast.odd, capture.fast.period_s,
        capture.fast.t_start, capture.band_fast, delay_hypothesis, opt);
    const sampling::pnbs_reconstructor slow(
        capture.slow.even, capture.slow.odd, capture.slow.period_s,
        capture.slow.t_start, capture.band_slow, delay_hypothesis, opt);

    double acc = 0.0;
    for (const double t : probe_times) {
        const double d = fast.value(t) - slow.value(t);
        acc += d * d;
    }
    return acc / static_cast<double>(probe_times.size());
}

} // namespace sdrbist::testing
