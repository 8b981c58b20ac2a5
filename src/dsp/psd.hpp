/// \file psd.hpp
/// \brief Power spectral density estimation (Welch) of a complex envelope.
///
/// The BIST verdict compares the Welch PSD of the reconstructed PA-output
/// envelope against a spectral emission mask, so the estimator must have a
/// calibrated power scale (two-sided density in V^2/Hz).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/window.hpp"

namespace sdrbist::dsp {

/// PSD estimate: frequency bins (Hz) and density values (V^2/Hz, linear).
struct psd_result {
    std::vector<double> frequency; ///< bin centres, ascending
    std::vector<double> density;   ///< linear power density per Hz
    double resolution_bw = 0.0;    ///< equivalent noise bandwidth in Hz

    /// Total power integrated over [f_lo, f_hi] (rectangle rule).
    [[nodiscard]] double band_power(double f_lo, double f_hi) const;

    /// Maximum density in [f_lo, f_hi]; 0 when the band is empty.
    [[nodiscard]] double peak_density(double f_lo, double f_hi) const;
};

/// Welch PSD options.
struct welch_options {
    std::size_t segment_length = 1024;      ///< samples per segment
    double overlap = 0.5;                   ///< fractional overlap in [0,1)
    window_kind window = window_kind::hann; ///< per-segment window
    double kaiser_beta = 8.6;               ///< when window == kaiser
};

/// Welch PSD of a complex (baseband) signal; two-sided result on
/// [-fs/2, fs/2), fftshifted to ascending frequency.
psd_result welch_psd(std::span<const std::complex<double>> x, double fs,
                     const welch_options& opt = {});

} // namespace sdrbist::dsp
