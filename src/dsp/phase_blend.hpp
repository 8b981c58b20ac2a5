/// \file phase_blend.hpp
/// \brief Row selection and cubic Lagrange weights for reading a polyphase
///        table between its phase rows.
///
/// A polyphase table holds `phase_steps` + 3 rows over the fractional
/// sample offset, row r at offset (r - 1)/phase_steps: one pad row below 0
/// and two above 1, so the four rows bracketing any offset in [0, 1)
/// exist.  A read at offset `frac` blends rows row..row+3 (nodes at -1, 0,
/// 1, 2 phase steps from the row just below frac) with the weights below,
/// and hands both to the dispatched `blend_dot` / `blend_dot_cplx` kernels.
/// Shared by `dsp::sinc_interpolator` and the EVM matched filter's SRRC
/// table (`waveform::srrc_matched_filter`).
#pragma once

#include <cstddef>

namespace sdrbist::dsp {

/// The four rows a read blends and their weights.
struct phase_blend {
    std::size_t row; ///< first of the four blended rows
    double w[4];     ///< cubic Lagrange weights of rows row..row+3
};

/// Blend of a (phase_steps + 3)-row table at fractional offset frac in
/// [0, 1).  The error against the tabulated function falls as
/// phase_steps^-4.
inline phase_blend cubic_phase_blend(double frac, std::size_t phase_steps) {
    const double x = frac * static_cast<double>(phase_steps);
    auto p = static_cast<std::size_t>(x);
    if (p > phase_steps - 1)
        p = phase_steps - 1;
    const double u = x - static_cast<double>(p);
    const double um = u - 1.0;
    const double um2 = u - 2.0;
    const double up = u + 1.0;
    return {p,
            {-u * um * um2 * (1.0 / 6.0), up * um * um2 * 0.5,
             -up * u * um2 * 0.5, up * u * um * (1.0 / 6.0)}};
}

} // namespace sdrbist::dsp
