/// \file evm.hpp
/// \brief Error-vector-magnitude measurement of a recovered envelope
///        against the known transmitted symbols.
///
/// The BIST generated the stimulus itself, so the reference symbols, symbol
/// timing and pulse shape are all known; only a complex gain (PA gain and
/// phase rotation) and a small residual timing offset must be estimated.
/// The timing search runs the SRRC matched filter 45 times per record (33
/// coarse offsets plus 6 × 2 refinements), so every symbol's matched output
/// reads a polyphase SRRC table built once per preset instead of evaluating
/// the closed-form pulse per tap (`srrc_matched_filter`).
#pragma once

#include <complex>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/table_memo.hpp"
#include "waveform/generator.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

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
};

/// EVM meter options.
struct evm_options {
    std::size_t skip_symbols = 8;   ///< discard edge symbols (filter tails)
    double timing_search_span = 0.5;///< ± span of timing search, in symbols
    std::size_t timing_steps = 33;  ///< coarse search grid size (odd)
    double envelope_t0 = 0.0; ///< absolute time of envelope[0] on the
                              ///< reference waveform's timeline
};

/// One-sided matched-filter support in symbol periods: a symbol's output
/// correlates the envelope over its centre ± this span.
inline constexpr double matched_span_symbols = 6.0;

/// Envelope-rate SRRC matched filter read from a shared polyphase table.
///
/// The output for a symbol centred at t_c (seconds, env[n] at n / fs) is
/// the Riemann sum Σ env[n]·h((n/fs - t_c)/Ts)/(fs·Ts) over the samples
/// inside t_c ± span·Ts, clamped to the record (a hard window edge), with h
/// the closed-form SRRC `srrc_value`.  The envelope rate is not a multiple
/// of the symbol rate (sps = fs/Rs is 7.9–23.2 on the catalogue), so every
/// symbol sits at its own fractional sample phase.  Instead of evaluating h
/// per tap, the pulse is tabulated at `phase_steps` phases per sample:
///  * phase_steps + 3 rows, row r at fractional phase (r - 1)/phase_steps;
///  * columns j = -H … H+1, H = ⌈span·sps⌉ + 2;
///  * cell (r, j) = srrc_value((j - phase)/sps, α), not truncated to the
///    window, so the tabulated function stays smooth across rows.
/// A read blends the four rows around the symbol's phase
/// (`dsp::cubic_phase_blend`, as the sinc interpolator does) and dots them
/// with the window's samples in the dispatched `blend_dot_cplx` kernel.
///
/// The window is the fixed `matched_span_symbols`, the span measure_evm's
/// symbol guard assumes, so the table depends only on (α, sps): it is
/// built once per process for each pair (one per preset: the envelope rate
/// is fixed per preset) and shared through `table_memo`, keyed by the two
/// bit patterns.  At sps = 23.15 it holds 67 × 284 doubles (≈152 KB).
///
/// Bound: the blended pulse is within ~5.5e-11 of `srrc_value` across the
/// window (absolute; the peak is 1 - α + 4α/π), so an output is within
/// 1e-10 of Σ|env[n]|/(fs·Ts) of the closed-form sum, and within 1e-9 of
/// Σ|env[n]·h|/(fs·Ts) unless its window is one or two samples near a zero
/// of h.  Checked on every backend by tests/waveform/evm_table_test.cpp
/// against tests/support/evm_yardstick.hpp; on the preset catalogue the
/// EVM moves by < 1e-9 percentage points.
class srrc_matched_filter {
public:
    /// Table rows per unit fractional sample phase.
    static constexpr std::size_t phase_steps = 64;

    /// \param sample_rate  envelope rate fs in Hz (> 0)
    /// \param symbol_rate  symbol rate Rs in Hz (> 0); sps = fs / Rs
    /// \param rolloff      SRRC roll-off α in (0, 1]
    srrc_matched_filter(double sample_rate, double symbol_rate,
                        double rolloff);

    /// Matched output of the symbol centred at t_centre (seconds on the
    /// envelope's own timeline); 0 when the window misses the record.
    [[nodiscard]] std::complex<double>
    operator()(std::span<const std::complex<double>> env,
               double t_centre) const;

    /// The shared table, row-major, (phase_steps + 3) × stride().
    [[nodiscard]] std::span<const double> table() const { return *table_; }
    /// H: the table's columns are j = -H … H+1.
    [[nodiscard]] std::size_t half_width() const { return half_; }
    [[nodiscard]] std::size_t stride() const { return 2 * half_ + 2; }

private:
    double fs_;
    double ts_;
    std::size_t half_;
    const simd::kernel_ops* ops_;
    shared_table table_;
};

/// Measure EVM of `envelope` (complex baseband at `sample_rate`, timeline
/// aligned with the waveform's `samples`) against `reference.symbols`.
/// Matched filtering is applied internally (`srrc_matched_filter` of the
/// reference's roll-off and symbol rate).
evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt = {});

/// Matched-filter output of the symbol centred at t (seconds on the
/// envelope's own timeline).
using matched_filter = std::function<std::complex<double>(double t)>;

/// The same timing search, gain fit and scoring with the caller's matched
/// filter: measure_evm above is this with `srrc_matched_filter`, and tests
/// run it with the closed-form yardstick to bound the table's effect.
evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt, const matched_filter& filter);

} // namespace sdrbist::waveform
