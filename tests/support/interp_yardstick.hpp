/// \file interp_yardstick.hpp
/// \brief Exact windowed-sinc evaluation: the reference the polyphase-LUT
///        `dsp::sinc_interpolator` fast path is bounded against.
///
/// Same tap window as the interpolator (2·half_taps samples around t, out
/// of range samples skipped), with sinc(d) and the Kaiser window's two
/// Bessel-I0 series (`dsp::kaiser_window_at`) evaluated at every tap.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <span>

#include "core/math_util.hpp"
#include "dsp/window.hpp"

namespace sdrbist::testing {

/// x(t) ≈ Σ_n samples[n]·sinc(rate·t - n)·w((rate·t - n)/half_taps).
inline std::complex<double>
interp_reference(std::span<const std::complex<double>> samples, double rate,
                 std::size_t half_taps, double beta, double t) {
    const double pos = t * rate; // fractional sample index
    const auto centre = static_cast<long>(std::floor(pos));
    const auto n_samples = static_cast<long>(samples.size());
    const auto half = static_cast<long>(half_taps);

    std::complex<double> acc{};
    const long lo = centre - half + 1;
    const long hi = centre + half;
    const double inv_half = 1.0 / static_cast<double>(half);
    for (long n = lo; n <= hi; ++n) {
        if (n < 0 || n >= n_samples)
            continue;
        const double d = pos - static_cast<double>(n);
        const double w = dsp::kaiser_window_at(d * inv_half, beta);
        acc += samples[static_cast<std::size_t>(n)] * (sinc(d) * w);
    }
    return acc;
}

} // namespace sdrbist::testing
