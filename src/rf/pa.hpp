/// \file pa.hpp
/// \brief Memoryless power-amplifier behavioural models (AM/AM and AM/PM).
///
/// The BIST's reason to exist is observing the PA output: compression and
/// spectral regrowth are what the spectral mask check must catch.
#pragma once

#include <complex>
#include <memory>
#include <vector>

namespace sdrbist::rf {

/// Interface: complex-envelope in, complex-envelope out.
class pa_model {
public:
    virtual ~pa_model() = default;

    /// Instantaneous envelope transfer.
    [[nodiscard]] virtual std::complex<double>
    amplify(std::complex<double> in) const = 0;

    /// Apply amplify() sample by sample to a whole envelope.
    [[nodiscard]] std::vector<std::complex<double>>
    process(const std::vector<std::complex<double>>& env) const;

    /// Small-signal voltage gain (linear).
    [[nodiscard]] virtual double small_signal_gain() const = 0;
};

/// Ideal linear PA.
class linear_pa final : public pa_model {
public:
    explicit linear_pa(double gain_db);
    [[nodiscard]] std::complex<double>
    amplify(std::complex<double> in) const override;
    [[nodiscard]] double small_signal_gain() const override { return gain_; }

private:
    double gain_;
};

/// Rapp solid-state PA model (AM/AM only):
///   |out| = G·|in| / (1 + (G·|in|/A_sat)^{2p})^{1/(2p)}
class rapp_pa final : public pa_model {
public:
    /// \param gain_db        small-signal gain
    /// \param sat_amplitude  output saturation amplitude A_sat (> 0)
    /// \param smoothness     knee sharpness p (>= 0.5; 2–3 typical for SSPA)
    rapp_pa(double gain_db, double sat_amplitude, double smoothness);

    [[nodiscard]] std::complex<double>
    amplify(std::complex<double> in) const override;
    [[nodiscard]] double small_signal_gain() const override { return gain_; }

    /// Input amplitude at which gain is compressed by `comp_db` dB.
    [[nodiscard]] double input_compression_point(double comp_db) const;

private:
    double gain_;
    double sat_;
    double p_;
};

/// Saleh TWTA model (AM/AM and AM/PM):
///   A(r) = aa·r/(1+ba·r^2),  Phi(r) = ap·r^2/(1+bp·r^2)  [radians]
class saleh_pa final : public pa_model {
public:
    saleh_pa(double alpha_a, double beta_a, double alpha_phi, double beta_phi);

    [[nodiscard]] std::complex<double>
    amplify(std::complex<double> in) const override;
    [[nodiscard]] double small_signal_gain() const override { return aa_; }

private:
    double aa_, ba_, ap_, bp_;
};

} // namespace sdrbist::rf
