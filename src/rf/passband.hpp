/// \file passband.hpp
/// \brief Continuous-time passband signal abstraction.
///
/// The nonuniform sampler probes the PA output at picosecond-resolved
/// instants, so the "analog" waveform must be evaluable at arbitrary t.
/// Two implementations:
///  * envelope_passband — bandlimited interpolation of a complex envelope
///    multiplied by an exactly-phased carrier (the behavioural Tx output);
///  * multitone_signal — analytic sum of cosines (exact; used to validate
///    sampling theory without interpolation error in the loop).
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "dsp/interpolator.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

namespace sdrbist::rf {

/// A real signal defined on [begin_time, end_time].
class passband_signal {
public:
    virtual ~passband_signal() = default;

    /// Signal value at time t (seconds).
    [[nodiscard]] virtual double value(double t) const = 0;

    /// First instant at which value() is fully defined.
    [[nodiscard]] virtual double begin_time() const = 0;

    /// Last such instant.
    [[nodiscard]] virtual double end_time() const = 0;

    /// Batch evaluation: one virtual dispatch per record instead of one
    /// per instant.  Implementations override this to amortise their
    /// per-call setup; the default loops over value().
    [[nodiscard]] virtual std::vector<double>
    values(const std::vector<double>& t) const;
};

/// Passband realisation of a complex envelope:
///   x(t) = Re{ E(t) · e^{j·2π·fc·t} }
/// with E(t) evaluated by windowed-sinc interpolation.
class envelope_passband final : public passband_signal {
public:
    /// \param envelope   complex envelope samples at `envelope_rate`
    /// \param envelope_rate  Hz; must comfortably oversample the envelope
    /// \param carrier_hz carrier frequency fc
    /// The interpolator is the default 32-half-tap windowed sinc.
    envelope_passband(std::vector<std::complex<double>> envelope,
                      double envelope_rate, double carrier_hz);

    [[nodiscard]] double value(double t) const override;
    [[nodiscard]] double begin_time() const override;
    [[nodiscard]] double end_time() const override;

    /// Batch capture path: interpolates the whole envelope record through
    /// the polyphase LUT before applying the carrier.
    [[nodiscard]] std::vector<double>
    values(const std::vector<double>& t) const override;

    [[nodiscard]] double carrier() const { return carrier_hz_; }

    // Construction parameters, exposed so a serialiser can round-trip the
    // signal: rebuilding with (envelope_samples, envelope_rate, carrier)
    // reproduces this object bit-identically (the LUT is a deterministic
    // function of them).
    [[nodiscard]] double envelope_rate() const { return interp_.rate(); }
    [[nodiscard]] const std::vector<std::complex<double>>&
    envelope_samples() const {
        return interp_.samples();
    }

private:
    dsp::sinc_interpolator interp_;
    double carrier_hz_;
    const simd::kernel_ops* ops_; ///< backend for the batch carrier mix
};

/// One spectral line of a multitone signal.
struct tone {
    double frequency_hz = 0.0;
    double amplitude = 1.0;
    double phase_rad = 0.0;
};

/// Analytic multitone: x(t) = sum_i A_i·cos(2π·f_i·t + φ_i), defined on a
/// caller-chosen interval (the theory is shift-invariant; tests choose
/// [0, duration]).
class multitone_signal final : public passband_signal {
public:
    multitone_signal(std::vector<tone> tones, double duration_s);

    [[nodiscard]] double value(double t) const override;
    [[nodiscard]] double begin_time() const override { return 0.0; }
    [[nodiscard]] double end_time() const override { return duration_; }

    [[nodiscard]] const std::vector<tone>& tones() const { return tones_; }

private:
    std::vector<tone> tones_;
    double duration_;
};

} // namespace sdrbist::rf
