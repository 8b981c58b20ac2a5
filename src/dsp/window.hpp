/// \file window.hpp
/// \brief Window functions for FIR design, spectral estimation and the
///        truncated Kohlenberg reconstruction filter (the paper windows its
///        61-tap reconstruction filter with a Kaiser window).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
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
/// Exact (two Bessel-I0 series per call); hot paths use kaiser_lut.
double kaiser_window_at(double u, double beta);

/// Precomputed continuous Kaiser window: `resolution + 1` exact samples of
/// kaiser_window_at over u in [0, 1], evaluated by symmetric linear
/// interpolation.  Replaces the two Bessel-I0 series per call with two loads
/// and a multiply; the interpolation error is |w''|/8 · resolution^-2
/// (~1e-6 absolute at the default 2048 points for beta = 8), far below the
/// truncation error of any windowed kernel it is applied to.
///
/// The table is built once per process for each (beta, resolution) and
/// shared by every kaiser_lut constructed with those exact parameters (the
/// PNBS reconstructor builds one per LMS cost evaluation), so construction
/// after the first is a locked map lookup.  The shared table is the same
/// build_table() output a private one would be, value for value.
///
/// Shared by the PNBS reconstructor and the hardware-mapped
/// reconstructor's table builder so both see identical window values.
/// (The windowed-sinc interpolator bakes exact window values into its own
/// polyphase coefficient table instead.)
class kaiser_lut {
public:
    explicit kaiser_lut(double beta, std::size_t resolution = 2048);

    /// Window value at normalised position u (any sign); 0 for |u| >= 1.
    [[nodiscard]] double operator()(double u) const {
        u = u < 0.0 ? -u : u;
        if (u >= 1.0)
            return 0.0;
        const std::vector<double>& lut = *table_;
        const double pos = u * static_cast<double>(lut.size() - 1);
        const auto i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        return lut[i] + frac * (lut[i + 1] - lut[i]);
    }

    [[nodiscard]] double beta() const { return beta_; }
    [[nodiscard]] std::size_t resolution() const {
        return table_->size() - 1;
    }

    /// The shared table: resolution + 1 window samples over u in [0, 1].
    [[nodiscard]] std::span<const double> table() const { return *table_; }

    /// A fresh (unshared) build of the table kaiser_lut(beta, resolution)
    /// holds.
    static std::vector<double> build_table(double beta,
                                           std::size_t resolution);

private:
    std::shared_ptr<const std::vector<double>> table_;
    double beta_;
};

/// Sum of window coefficients (coherent gain numerator).
double window_sum(const std::vector<double>& w);

/// Sum of squared coefficients (used in PSD normalisation).
double window_power(const std::vector<double>& w);

/// Human-readable name of a window kind.
std::string to_string(window_kind kind);

} // namespace sdrbist::dsp
