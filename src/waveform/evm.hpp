/// \file evm.hpp
/// \brief Error-vector-magnitude measurement of a recovered envelope
///        against the known transmitted symbols.
///
/// The BIST generated the stimulus itself, so the reference symbols, symbol
/// timing and pulse shape are all known; only a complex gain (PA gain and
/// phase rotation) and a small residual timing offset must be estimated.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "waveform/generator.hpp"

namespace sdrbist::waveform {

/// EVM measurement result.
struct evm_result {
    double evm_rms = 0.0;          ///< RMS EVM, fraction of reference RMS
    double evm_peak = 0.0;         ///< worst-symbol EVM, fraction
    std::complex<double> gain{1.0, 0.0}; ///< fitted complex channel gain
    double timing_offset = 0.0;    ///< fitted timing offset in seconds
    std::vector<std::complex<double>> received_symbols; ///< gain-corrected

    /// EVM in percent.
    [[nodiscard]] double evm_percent() const { return 100.0 * evm_rms; }
    /// EVM in dB (20·log10).
    [[nodiscard]] double evm_db() const;
};

/// EVM meter options.
struct evm_options {
    std::size_t skip_symbols = 8;   ///< discard edge symbols (filter tails)
    double timing_search_span = 0.5;///< ± span of timing search, in symbols
    std::size_t timing_steps = 33;  ///< coarse search grid size (odd)
    double envelope_t0 = 0.0; ///< absolute time of envelope[0] on the
                              ///< reference waveform's timeline
};

/// Measure EVM of `envelope` (complex baseband at `sample_rate`, timeline
/// aligned with the waveform's `samples`) against `reference.symbols`.
/// Matched filtering is applied internally (SRRC of the reference config).
evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt = {});

} // namespace sdrbist::waveform
