/// \file envelope_check.hpp
/// \brief The identity every direct PNBS envelope must satisfy:
///        Re{e(t)·e^{j2π·f_mix·t}} = value(t).
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>

#include "core/units.hpp"
#include "sampling/pnbs.hpp"

namespace sdrbist::testing {

struct re_identity {
    double max_err = 0.0; ///< max |Re{e·e^{j2π·f_mix·t}} - value(t)|
    double peak = 0.0;    ///< max |value(t)| over the same instants
};

/// Checks recon.envelope(t0, rate, n, f_mix) against recon.value() at the
/// same instants t0 + i/rate.  The carrier phase 2π·f_mix·t is formed as
/// envelope() forms it, so its rounding (~ulp of a phase of 1e4–1e5 rad)
/// cancels instead of masking the algebra.
inline re_identity check_re_identity(const sampling::pnbs_reconstructor& recon,
                                     double t0, double rate, std::size_t n,
                                     double f_mix) {
    const auto env = recon.envelope(t0, rate, n, f_mix);
    re_identity r;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(i) / rate;
        const double v = recon.value(t);
        const double re =
            (env[i] * std::polar(1.0, two_pi * f_mix * t)).real();
        r.max_err = std::max(r.max_err, std::abs(re - v));
        r.peak = std::max(r.peak, std::abs(v));
    }
    return r;
}

} // namespace sdrbist::testing
