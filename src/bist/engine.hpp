/// \file engine.hpp
/// \brief The complete BIST flow of the paper: stimulate the Tx with a
///        known waveform, capture the PA output with the re-used Rx ADCs at
///        two rates, identify the DCDE time-skew with the LMS algorithm,
///        reconstruct the bandpass signal, and grade spectrum (mask) and
///        modulation quality (EVM).
///
/// The flow itself lives in the staged pipeline (bist/pipeline.hpp):
/// `bist_engine` is the one-shot convenience wrapper that runs a
/// `bist_session` end to end.  Use the session directly to read a stage's
/// typed output, run stages individually, resume, or share upstream stage
/// results across executions.
#pragma once

#include <cstdint>

#include "adc/tiadc.hpp"
#include "bist/report.hpp"
#include "bist/spectrum.hpp"
#include "calib/lms.hpp"
#include "rf/tx.hpp"
#include "waveform/standard.hpp"

namespace sdrbist::bist {

/// Full BIST configuration.
struct bist_config {
    waveform::standard_preset preset = waveform::paper_qpsk_preset();
    rf::tx_config tx{};            ///< DUT; carrier overridden by preset
    adc::tiadc_config tiadc{};     ///< capture hardware (paper defaults)
    double dcde_target_delay_s = 180e-12; ///< programmed delay (paper value)

    // Skew calibration runs on its own *wideband* stimulus (the paper's
    // 10 MHz QPSK): the dual-rate cost loses contrast for narrowband
    // signals, whose mismatched reconstructions collapse to a single
    // complex gain on both rates.  The DCDE skew is a hardware property,
    // so the estimate carries over to the graded waveform.
    bool use_calibration_stimulus = true;
    waveform::generator_config calibration_stimulus{}; ///< defaults = paper

    std::size_t fast_samples = 720;  ///< record length at rate B
    std::size_t slow_divider = 2;    ///< B1 = B / divider (paper: 2)
    double capture_start_s = 0.0;    ///< 0 = auto (after interp margin)

    // Capture-path band-select filter (the red BPF of paper Fig. 1 between
    // the PA tap and the S/H), modelled as its baseband-equivalent lowpass.
    // The estimation captures use a *narrow* setting confined to the slow
    // band B1 (content outside B1/2 aliases only in the slow reconstruction
    // and would bias the skew cost); the spectrum-grading capture then
    // re-tunes the filter to a *wide* setting spanning the fast band B.
    int capture_filter_order = 5;
    double capture_filter_halfwidth_hz = 0.0;  ///< narrow; 0 = auto (0.42·B1)
    double spectrum_filter_halfwidth_hz = 0.0; ///< wide; 0 = auto (0.45·B)
    bool auto_range = true; ///< run the attenuator ranging step

    std::size_t probe_count = 300;   ///< N (paper: 300)
    std::uint64_t probe_seed = 0xBEEF;
    double d0_hint_s = 0.0;          ///< initial D̂ (0 = middle of ]0, m[)
    calib::lms_options lms{};

    spectrum_options spectrum{};
    double evm_limit_percent = 8.0;
    double min_output_rms = 0.0; ///< PA output floor check (0 = disabled)
    double acpr_limit_dbc = -30.0; ///< adjacent-channel limit (0 = disabled)
    double acpr_offset_hz = 0.0;   ///< adjacent-channel offset (0 = auto,
                                   ///< 1.5 × occupied bandwidth)
};

/// BIST orchestration engine: thin one-shot wrapper over `bist_session`
/// (bit-identical to the staged pipeline by construction — it *is* the
/// staged pipeline, run end to end).
class bist_engine {
public:
    explicit bist_engine(bist_config config);

    /// Execute the full flow against a transmitter built from the config
    /// (optionally with an injected fault applied by the caller).
    [[nodiscard]] bist_report run() const;

    [[nodiscard]] const bist_config& config() const { return config_; }

private:
    bist_config config_;
};

} // namespace sdrbist::bist
