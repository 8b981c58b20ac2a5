/// \file impairments.hpp
/// \brief Analog front-end impairment models applied to the complex
///        envelope: quadrature (I/Q) imbalance, LO leakage, oscillator
///        phase noise, thermal noise.
///
/// All models operate on the baseband-equivalent signal; for a symmetric
/// band around the carrier this is exactly equivalent to passband
/// processing and permits arbitrary-time passband evaluation later.
#pragma once

#include <complex>
#include <vector>

#include "core/random.hpp"

namespace sdrbist::rf {

using cvec = std::vector<std::complex<double>>;

/// Transmitter quadrature modulator imbalance:
///   x(t) = I·cos(wt) - g·Q·sin(wt + phi)
/// i.e. the Q branch has relative gain g and phase skew phi.
struct iq_imbalance {
    double gain_db = 0.0;    ///< Q-branch gain relative to I, dB
    double phase_deg = 0.0;  ///< quadrature phase error, degrees

    /// Apply to an envelope (returns a new vector).
    [[nodiscard]] cvec apply(const cvec& env) const;
};

/// Carrier (LO) leakage: constant complex offset added to the envelope,
/// specified relative to the envelope RMS.
struct lo_leakage {
    double level_dbc = -80.0; ///< leakage power relative to signal, dB
    double phase_deg = 0.0;   ///< leakage phase

    [[nodiscard]] cvec apply(const cvec& env) const;
};

/// Oscillator phase noise modelled as a Wiener (random-walk) process with
/// Lorentzian linewidth `linewidth_hz`:  var(phi[n+1]-phi[n]) = 2·pi·lw/fs.
struct phase_noise {
    double linewidth_hz = 0.0;

    /// Generate a phase trajectory of length n at rate fs.
    [[nodiscard]] std::vector<double> trajectory(std::size_t n, double fs,
                                                 rng& gen) const;

    /// Apply e^{j·phi(t)} to the envelope.
    [[nodiscard]] cvec apply(const cvec& env, double fs, rng& gen) const;
};

/// Additive white Gaussian noise at a target in-band SNR; each sample's I
/// and Q are the two outputs of one polar pair (rng::gaussian_fill).
struct thermal_noise {
    double snr_db = 120.0; ///< SNR relative to envelope power

    [[nodiscard]] cvec apply(const cvec& env, rng& gen) const;
};

/// RMS amplitude of a complex envelope (helper shared by the models).
double envelope_rms(const cvec& env);

} // namespace sdrbist::rf
