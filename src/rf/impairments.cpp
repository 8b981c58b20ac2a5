#include "rf/impairments.hpp"

#include <cmath>
#include <span>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::rf {

double envelope_rms(const cvec& env) {
    SDRBIST_EXPECTS(!env.empty());
    double p = 0.0;
    for (const auto& v : env)
        p += std::norm(v);
    return std::sqrt(p / static_cast<double>(env.size()));
}

cvec iq_imbalance::apply(const cvec& env) const {
    const double g = amplitude_from_db(gain_db);
    const double phi = phase_deg * pi / 180.0;
    const double sin_phi = std::sin(phi);
    const double cos_phi = std::cos(phi);
    cvec out(env.size());
    for (std::size_t n = 0; n < env.size(); ++n) {
        const double i = env[n].real();
        const double q = env[n].imag();
        // x(t) = I·cos - g·Q·sin(wt+phi)
        //      = (I - g·Q·sin_phi)·cos(wt) - (g·Q·cos_phi)·sin(wt)
        out[n] = {i - g * q * sin_phi, g * q * cos_phi};
    }
    return out;
}

cvec lo_leakage::apply(const cvec& env) const {
    const double rms = envelope_rms(env);
    const std::complex<double> leak =
        rms * amplitude_from_db(level_dbc) *
        std::polar(1.0, phase_deg * pi / 180.0);
    cvec out(env);
    for (auto& v : out)
        v += leak;
    return out;
}

std::vector<double> phase_noise::trajectory(std::size_t n, double fs,
                                            rng& gen) const {
    SDRBIST_EXPECTS(fs > 0.0);
    SDRBIST_EXPECTS(linewidth_hz >= 0.0);
    std::vector<double> phi(n, 0.0);
    if (linewidth_hz == 0.0 || n == 0)
        return phi;
    const double sigma = std::sqrt(two_pi * linewidth_hz / fs);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        phi[i] = acc;
        acc += gen.gaussian(0.0, sigma);
    }
    return phi;
}

cvec phase_noise::apply(const cvec& env, double fs, rng& gen) const {
    const auto phi = trajectory(env.size(), fs, gen);
    cvec out(env.size());
    for (std::size_t n = 0; n < env.size(); ++n)
        out[n] = env[n] * std::polar(1.0, phi[n]);
    return out;
}

cvec thermal_noise::apply(const cvec& env, rng& gen) const {
    const double rms = envelope_rms(env);
    const double sigma =
        rms * amplitude_from_db(-snr_db) / std::sqrt(2.0); // per dimension
    // One polar pair per sample: re = y·mult·σ, im = x·mult·σ
    // (std::complex<double> is two contiguous doubles, [complex.numbers]).
    cvec out(env.size());
    gen.gaussian_fill(std::span<double>(reinterpret_cast<double*>(out.data()),
                                        2 * out.size()),
                      sigma);
    for (std::size_t n = 0; n < out.size(); ++n)
        out[n] += env[n];
    return out;
}

} // namespace sdrbist::rf
