#include "rf/pa.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::rf {

std::vector<std::complex<double>>
pa_model::process(const std::vector<std::complex<double>>& env) const {
    std::vector<std::complex<double>> out(env.size());
    for (std::size_t n = 0; n < env.size(); ++n)
        out[n] = amplify(env[n]);
    return out;
}

// ---- linear ---------------------------------------------------------------

linear_pa::linear_pa(double gain_db) : gain_(amplitude_from_db(gain_db)) {}

std::complex<double> linear_pa::amplify(std::complex<double> in) const {
    return gain_ * in;
}

// ---- Rapp -----------------------------------------------------------------

rapp_pa::rapp_pa(double gain_db, double sat_amplitude, double smoothness)
    : gain_(amplitude_from_db(gain_db)), sat_(sat_amplitude), p_(smoothness) {
    SDRBIST_EXPECTS(sat_ > 0.0);
    SDRBIST_EXPECTS(p_ >= 0.5);
}

std::complex<double> rapp_pa::amplify(std::complex<double> in) const {
    const double r = std::abs(in);
    if (r == 0.0)
        return {0.0, 0.0};
    const double lin = gain_ * r;
    const double den = std::pow(1.0 + std::pow(lin / sat_, 2.0 * p_),
                                1.0 / (2.0 * p_));
    return in * (gain_ / den);
}

double rapp_pa::input_compression_point(double comp_db) const {
    SDRBIST_EXPECTS(comp_db > 0.0);
    // Solve G/ (1+(G r/A)^{2p})^{1/(2p)} = G·10^{-c/20}  for r.
    const double c = amplitude_from_db(-comp_db); // gain ratio < 1
    const double lhs = std::pow(c, -2.0 * p_) - 1.0; // (G r/A)^{2p}
    SDRBIST_ENSURES(lhs > 0.0);
    return sat_ / gain_ * std::pow(lhs, 1.0 / (2.0 * p_));
}

// ---- Saleh ------------------------------------------------------------------

saleh_pa::saleh_pa(double alpha_a, double beta_a, double alpha_phi,
                   double beta_phi)
    : aa_(alpha_a), ba_(beta_a), ap_(alpha_phi), bp_(beta_phi) {
    SDRBIST_EXPECTS(aa_ > 0.0);
    SDRBIST_EXPECTS(ba_ >= 0.0);
}

std::complex<double> saleh_pa::amplify(std::complex<double> in) const {
    const double r = std::abs(in);
    if (r == 0.0)
        return {0.0, 0.0};
    const double amp = aa_ * r / (1.0 + ba_ * r * r);
    const double phi = ap_ * r * r / (1.0 + bp_ * r * r);
    return std::polar(amp, std::arg(in) + phi);
}

} // namespace sdrbist::rf
