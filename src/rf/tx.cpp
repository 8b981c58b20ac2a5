#include "rf/tx.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace sdrbist::rf {

homodyne_tx::homodyne_tx(tx_config config) : config_(config) {
    switch (config_.pa) {
    case pa_kind::linear:
        pa_ = std::make_unique<linear_pa>(config_.pa_gain_db);
        break;
    case pa_kind::rapp: {
        // Saturation chosen so a unit-RMS drive at the configured backoff
        // lands in a realistic compression region: A_sat = G (unit input
        // saturates the output at the small-signal gain).
        pa_ = std::make_unique<rapp_pa>(config_.pa_gain_db,
                                        amplitude_from_db(config_.pa_gain_db),
                                        config_.rapp_smoothness);
        break;
    }
    case pa_kind::saleh:
        pa_ = std::make_unique<saleh_pa>(
            config_.saleh_alpha_a, config_.saleh_beta_a,
            config_.saleh_alpha_phi, config_.saleh_beta_phi);
        break;
    }
}

double homodyne_tx::drive_scale(const cvec& envelope) const {
    const double rms = envelope_rms(envelope);
    SDRBIST_EXPECTS(rms > 0.0);
    double ref_input; // input amplitude that marks "0 dB backoff"
    switch (config_.pa) {
    case pa_kind::rapp: {
        const auto& rp = dynamic_cast<const rapp_pa&>(*pa_);
        ref_input = rp.input_compression_point(1.0);
        break;
    }
    case pa_kind::saleh:
        // Saleh peak output at r = 1/sqrt(beta_a); use that drive as ref.
        ref_input = 1.0 / std::sqrt(std::max(config_.saleh_beta_a, 1e-12));
        break;
    case pa_kind::linear:
    default:
        ref_input = 1.0;
        break;
    }
    return ref_input * amplitude_from_db(-config_.pa_backoff_db) / rms;
}

tx_output homodyne_tx::transmit(const waveform::baseband_waveform& bb) const {
    SDRBIST_EXPECTS(!bb.samples.empty());
    SDRBIST_EXPECTS(bb.sample_rate > 0.0);
    rng gen(config_.seed);

    cvec env = bb.samples;
    const double fs = bb.sample_rate;

    // 1. DAC anti-image reconstruction lowpass (Butterworth on I and Q).
    {
        const double cutoff = config_.recon_filter_cutoff_hz > 0.0
                                  ? config_.recon_filter_cutoff_hz
                                  : 0.35 * fs;
        auto lpf =
            dsp::butterworth_lowpass(config_.recon_filter_order, cutoff, fs);
        env = lpf.filter(std::span<const std::complex<double>>(env.data(),
                                                               env.size()));
    }

    // 2. Quadrature modulator: I/Q imbalance then LO leakage.
    env = config_.imbalance.apply(env);
    env = config_.leakage.apply(env);

    // 3. LO phase noise (multiplicative).
    if (config_.lo_phase_noise.linewidth_hz > 0.0) {
        rng pn = gen.fork();
        env = config_.lo_phase_noise.apply(env, fs, pn);
    }

    // 4. PA drive-level scaling and nonlinearity.
    const double scale = drive_scale(env);
    for (auto& v : env)
        v *= scale;
    env = pa_->process(env);

    // 5. Band-select output filter (baseband-equivalent lowpass).
    if (config_.band_filter_halfwidth_hz > 0.0) {
        auto bpf = dsp::butterworth_lowpass(
            config_.band_filter_order, config_.band_filter_halfwidth_hz, fs);
        env = bpf.filter(std::span<const std::complex<double>>(env.data(),
                                                               env.size()));
    }

    // 6. Output thermal noise floor.
    {
        rng nz = gen.fork();
        env = config_.noise.apply(env, nz);
    }

    tx_output out;
    out.envelope = std::move(env);
    out.envelope_rate = fs;
    out.carrier_hz = config_.carrier_hz;
    return out;
}

} // namespace sdrbist::rf
