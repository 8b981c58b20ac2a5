#include "rf/passband.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"

namespace sdrbist::rf {

std::vector<double>
passband_signal::values(const std::vector<double>& t) const {
    std::vector<double> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = value(t[i]);
    return out;
}

envelope_passband::envelope_passband(
    std::vector<std::complex<double>> envelope, double envelope_rate,
    double carrier_hz)
    : interp_(std::move(envelope), envelope_rate),
      carrier_hz_(carrier_hz), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(carrier_hz_ > 0.0);
    // The envelope must be strictly oversampled for interpolation to hold.
    SDRBIST_EXPECTS(envelope_rate > 0.0);
}

double envelope_passband::value(double t) const {
    const std::complex<double> e = interp_.at(t);
    // Re{E·e^{jwt}} with the carrier phase computed in full double
    // precision.  The mix goes through the scalar kernel table so that
    // per-instant and batch evaluation stay bit-identical on every
    // architecture (the carrier_mix kernel is elementwise and
    // bit-identical across backends).
    const double wt = two_pi * carrier_hz_ * t;
    const double c = std::cos(wt);
    const double s = std::sin(wt);
    double out = 0.0;
    simd::scalar_ops().carrier_mix(&e, &c, &s, &out, 1);
    return out;
}

std::vector<double>
envelope_passband::values(const std::vector<double>& t) const {
    const auto env = interp_.at(t); // batch LUT interpolation
    // Carrier phase factors stay on scalar libm (no vector sincos in the
    // baseline toolchain); the mix itself runs on the SIMD backend.
    std::vector<double> cos_wt(t.size());
    std::vector<double> sin_wt(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double wt = two_pi * carrier_hz_ * t[i];
        cos_wt[i] = std::cos(wt);
        sin_wt[i] = std::sin(wt);
    }
    std::vector<double> out(t.size());
    ops_->carrier_mix(env.data(), cos_wt.data(), sin_wt.data(), out.data(),
                      t.size());
    return out;
}

double envelope_passband::begin_time() const { return interp_.valid_begin(); }

double envelope_passband::end_time() const { return interp_.valid_end(); }

multitone_signal::multitone_signal(std::vector<tone> tones, double duration_s)
    : tones_(std::move(tones)), duration_(duration_s) {
    SDRBIST_EXPECTS(!tones_.empty());
    SDRBIST_EXPECTS(duration_ > 0.0);
    for (const auto& tn : tones_)
        SDRBIST_EXPECTS(tn.frequency_hz > 0.0);
}

double multitone_signal::value(double t) const {
    double acc = 0.0;
    for (const auto& tn : tones_)
        acc += tn.amplitude * std::cos(two_pi * tn.frequency_hz * t +
                                       tn.phase_rad);
    return acc;
}

} // namespace sdrbist::rf
