/// \file window.hpp
/// \brief Window functions for FIR design, spectral estimation and the
///        truncated Kohlenberg reconstruction filter (the paper windows its
///        61-tap reconstruction filter with a Kaiser window).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sdrbist::dsp {

/// Supported window families.
enum class window_kind {
    rectangular,
    hann,
    hamming,
    blackman,
    kaiser, ///< parameterised by beta
};

/// Generate a symmetric window of length n.
/// For window_kind::kaiser, `kaiser_beta` selects the sidelobe level.
/// Precondition: n >= 1.
std::vector<double> make_window(window_kind kind, std::size_t n,
                                double kaiser_beta = 8.6);

/// Kaiser window of length n with shape parameter beta (symmetric).
std::vector<double> kaiser_window(std::size_t n, double beta);

/// Kaiser beta that achieves the requested stopband attenuation in dB
/// (Kaiser's empirical formula).
double kaiser_beta_for_attenuation(double attenuation_db);

/// Value of the continuous Kaiser window at normalised position
/// u in [-1, 1] (0 = centre, ±1 = edges); 0 outside.
/// Used to window the continuous-argument Kohlenberg kernel.
/// Exact (two Bessel-I0 series per call).
double kaiser_window_at(double u, double beta);

/// The continuous Kaiser window I0(β·√(1-u²))/I0(β) on |u| ≤ 1, continued
/// analytically past its support as J0(β·√(u²-1))/I0(β) for |u| > 1.
/// Polyphase tables whose pad cells fall just outside the support
/// (the windowed-sinc interpolator's LUT, the PNBS kernel tables) tabulate
/// the continuation there, which keeps the tabulated function C^∞ through
/// the support edge so a cubic phase blend keeps its full order.
class continued_kaiser {
public:
    explicit continued_kaiser(double beta);

    [[nodiscard]] double operator()(double u) const;

private:
    double beta_;
    double inv_i0b_; ///< 1 / I0(β)
};

/// Sum of window coefficients (coherent gain numerator).
double window_sum(const std::vector<double>& w);

/// Sum of squared coefficients (used in PSD normalisation).
double window_power(const std::vector<double>& w);

/// Human-readable name of a window kind.
std::string to_string(window_kind kind);

} // namespace sdrbist::dsp
