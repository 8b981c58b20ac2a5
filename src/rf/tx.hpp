/// \file tx.hpp
/// \brief Behavioural model of the homodyne (direct-conversion) transmitter
///        of paper Fig. 1: DAC reconstruction filters, quadrature modulator
///        with impairments, LO phase noise, PA, band-select filter.
///
/// The whole chain is simulated on the complex envelope (baseband
/// equivalent); the output is a continuous-time passband signal that the
/// BP-TIADC then probes at arbitrary instants.
#pragma once

#include <memory>
#include <optional>

#include "core/random.hpp"
#include "dsp/biquad.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"
#include "rf/passband.hpp"
#include "waveform/generator.hpp"

namespace sdrbist::rf {

/// PA selection for the transmitter chain.
enum class pa_kind { linear, rapp, saleh };

/// Complete transmitter configuration (the "device under test").
struct tx_config {
    double carrier_hz = 1e9; ///< paper: fc = 1 GHz

    // Analog reconstruction (anti-image) lowpass after the DACs.
    int recon_filter_order = 5;
    double recon_filter_cutoff_hz = 0.0; ///< 0 = auto (0.35 × envelope rate)

    // Quadrature modulator impairments.
    iq_imbalance imbalance{};          ///< defaults: ideal
    lo_leakage leakage{-90.0, 0.0};    ///< near-ideal by default
    phase_noise lo_phase_noise{0.0};   ///< Lorentzian linewidth; 0 = clean

    // Power amplifier.
    pa_kind pa = pa_kind::rapp;
    double pa_gain_db = 20.0;
    double pa_backoff_db = 8.0; ///< input backoff from the 1 dB point
    double rapp_smoothness = 2.0;
    double saleh_alpha_a = 2.1587, saleh_beta_a = 1.1517;
    double saleh_alpha_phi = 4.0033, saleh_beta_phi = 9.1040;

    // Band-select (output) filter, baseband-equivalent lowpass half-width.
    int band_filter_order = 5;
    double band_filter_halfwidth_hz = 0.0; ///< 0 = disabled

    // Additive output noise floor.
    thermal_noise noise{140.0}; ///< essentially clean by default

    std::uint64_t seed = 0xC0FFEE; ///< drives phase noise + thermal noise
};

/// Transmitter output: the processed complex envelope on its carrier.
/// `envelope_passband(envelope, envelope_rate, carrier_hz)` realises it
/// as the continuous-time passband x(t).
struct tx_output {
    std::vector<std::complex<double>> envelope; ///< post-PA envelope
    double envelope_rate = 0.0;
    double carrier_hz = 0.0;
};

/// Homodyne transmitter behavioural model.
class homodyne_tx {
public:
    explicit homodyne_tx(tx_config config);

    /// Push a baseband stimulus through the chain and realise the passband
    /// output.  Deterministic in (config.seed, stimulus).
    [[nodiscard]] tx_output transmit(const waveform::baseband_waveform& bb) const;

    [[nodiscard]] const tx_config& config() const { return config_; }

    /// The PA model the chain uses (exposed for characterisation tests).
    [[nodiscard]] const pa_model& amplifier() const { return *pa_; }

    /// Input scale applied before the PA so the envelope RMS sits
    /// `pa_backoff_db` below the PA 1 dB compression input (Rapp) or unit
    /// drive (Saleh).  Exposed for tests.
    [[nodiscard]] double drive_scale(const cvec& envelope) const;

private:
    tx_config config_;
    std::unique_ptr<pa_model> pa_;
};

} // namespace sdrbist::rf
