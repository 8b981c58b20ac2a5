/// \file ddc.hpp
/// \brief Digital downconversion of a real passband sequence to a complex
///        baseband envelope (mix, lowpass, decimate).
///
/// The BIST pipeline does not mix a passband grid down: it evaluates the
/// complex envelope directly from the PNBS product form
/// (`sampling::pnbs_reconstructor::envelope`, `bist::reconstruct_envelope`).
/// `digital_downconvert` over a dense `pnbs_reconstructor::uniform` grid is
/// the yardstick that envelope is bounded against; `ddc_lowpass` is the one
/// anti-alias design rule both paths use.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace sdrbist::dsp {

/// DDC configuration.
struct ddc_options {
    double carrier_hz = 0.0;     ///< mix-down frequency
    double sample_rate = 0.0;    ///< input sample rate
    std::size_t decimation = 1;  ///< integer decimation factor
    std::size_t fir_taps = 0;    ///< anti-alias lowpass length (odd);
                                 ///< 0 = auto-sized so the transition band
                                 ///< fits between cutoff and fs_out/2
                                 ///< (Kaiser estimate, 70 dB stopband)
    double cutoff_hz = 0.0;      ///< lowpass cutoff; 0 = auto (0.4·fs_out)
    double kaiser_beta = 0.0;    ///< design window beta; 0 = auto (70 dB)
    double stopband_db = 70.0;   ///< auto-design stopband attenuation
};

/// Anti-alias lowpass for decimating by `opt.decimation` at
/// `opt.sample_rate`: a Kaiser windowed sinc, flat up to the cutoff, with
/// its -6 dB point mid-way to the post-decimation Nyquist edge (transition
/// at least 2 % of the output rate) and, when `fir_taps` is 0, a length
/// from the Kaiser estimate for `stopband_db` clamped to [63, 8191].
/// `carrier_hz` is not read.
std::vector<double> ddc_lowpass(const ddc_options& opt);

/// Mix x(t) with exp(-j·2π·fc·t), lowpass filter (`ddc_lowpass`) and
/// decimate.
/// Returns the complex envelope at rate sample_rate / decimation.
/// The group delay of the anti-alias FIR is compensated (output sample m
/// corresponds to input time m·decimation/fs).  The FIR runs through
/// filter_decimate, so it is evaluated only at the kept outputs (one in
/// `decimation`) and no full-rate filtered record is formed; the result is
/// bit-identical to filtering every input sample and then decimating.
std::vector<std::complex<double>>
digital_downconvert(std::span<const double> x, const ddc_options& opt);

} // namespace sdrbist::dsp
