/// \file spectrum.hpp
/// \brief From nonuniform samples to a carrier-centred spectrum: direct
///        complex-envelope reconstruction from the PNBS product form, a
///        short anti-alias FIR, and Welch PSD.
///
/// The envelope timeline is the one a dense passband grid plus a DDC
/// would produce (first sample at the reconstructor's valid_begin, rate
/// dense_rate / decimation, ceil(n_dense / decimation) samples), but no
/// passband grid is formed: `pnbs_reconstructor::envelope` evaluates the
/// envelope at a small multiple M of that rate, and `dsp::filter_decimate`
/// takes it down by M through the `dsp::ddc_lowpass` design.
#pragma once

#include <complex>
#include <vector>

#include "dsp/ddc.hpp"
#include "dsp/psd.hpp"
#include "sampling/pnbs.hpp"

namespace sdrbist::bist {

/// Reconstructed complex envelope with its timeline.
struct reconstructed_envelope {
    std::vector<std::complex<double>> samples;
    double rate = 0.0; ///< envelope sample rate
    double t0 = 0.0;   ///< absolute time of samples[0]
};

/// Spectrum-path options.
struct spectrum_options {
    /// Sets the envelope-rate grid only: the envelope rate is
    /// dense_rate / floor(dense_rate / envelope_rate_min) with
    /// dense_rate = factor × 2·f_hi (no dense grid is evaluated).
    double dense_rate_factor = 2.3;
    double envelope_rate_min = 0.0; ///< 0 = auto (4 × bandwidth)
    std::size_t ddc_taps = 0;       ///< M-rate anti-alias FIR length
                                    ///< (0 = auto-size by `dsp::ddc_lowpass`;
                                    ///< every in-tree caller leaves it 0)
    double ddc_cutoff_hz = 0.0;     ///< 0 = auto (0.55 × band width plus
                                    ///< the mix offset from the centre)
    std::size_t welch_segment = 0;  ///< 0 = auto: sized so the resolution
                                    ///< bandwidth is a small fraction of the
                                    ///< graded signal's occupied bandwidth
    double mix_frequency = 0.0; ///< DDC mix-down frequency; 0 = the
                                ///< reconstruction band centre.  Set to the
                                ///< carrier when the band is offset from it.
};

/// Welch segment length for a target resolution: the largest power of two
/// <= available/2 with at least `bins_per_occupied` bins across the
/// occupied bandwidth, clamped to [256, 16384].
std::size_t auto_welch_segment(double envelope_rate, double occupied_bw,
                               std::size_t available_samples,
                               double bins_per_occupied = 40.0);

/// How reconstruct_envelope samples and filters, derived from the band and
/// the options alone.
struct envelope_plan {
    double t0 = 0.0;             ///< valid_begin: time of samples[0]
    double dense_rate = 0.0;     ///< factor × 2·f_hi
    std::size_t n_dense = 0;     ///< floor(valid span × dense_rate)
    std::size_t decimation = 1;  ///< dense_rate / envelope rate
    double rate = 0.0;           ///< envelope rate
    std::size_t count = 0;       ///< envelope samples, ceil(n_dense / decim.)
    double mix_frequency = 0.0;  ///< envelope centre
    /// Evaluation oversampling M = max(1, ceil((reach + cutoff + trans) /
    /// rate)): reach = max |band edge - mix_frequency| (or the cutoff, if
    /// wider), trans the FIR transition width, so no band content aliases
    /// into the passband.
    std::size_t oversample = 1;
    /// The M-rate anti-alias FIR (`dsp::ddc_lowpass` of these options:
    /// sample_rate = M·rate, decimation = M, the cutoff and ddc_taps).
    dsp::ddc_options lowpass;
};

/// The plan reconstruct_envelope follows for `recon` under `opt`.
envelope_plan plan_envelope(const sampling::pnbs_reconstructor& recon,
                            const spectrum_options& opt = {});

/// Complex envelope about the mix frequency (default: the band centre)
/// over the reconstructor's valid span: `recon.envelope()` at M × the
/// plan's rate, then `dsp::filter_decimate` by M through
/// `dsp::ddc_lowpass(plan.lowpass)`.  Phase is referenced to absolute
/// time, so e(t)·e^{j2π·f_mix·t} is the reconstructed passband signal.
/// Within one FIR half-span of either record edge the zero-padded FIR
/// tapers the samples.
reconstructed_envelope
reconstruct_envelope(const sampling::pnbs_reconstructor& recon,
                     const spectrum_options& opt = {});

/// Welch PSD (two-sided, frequencies relative to the band centre) of a
/// reconstructed envelope.
dsp::psd_result envelope_psd(const reconstructed_envelope& env,
                             std::size_t welch_segment = 256);

} // namespace sdrbist::bist
