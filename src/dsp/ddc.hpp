/// \file ddc.hpp
/// \brief Digital downconversion of a real passband sequence to a complex
///        baseband envelope (mix, lowpass, decimate).
///
/// After PNBS reconstruction the BIST evaluates the spectrum *around the
/// carrier*; the DDC recentres the reconstructed RF waveform at 0 Hz so the
/// mask checker and EVM meter operate on the complex envelope.
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

/// Mix x(t) with exp(-j·2π·fc·t), lowpass filter and decimate.
/// Returns the complex envelope at rate sample_rate / decimation.
/// The group delay of the anti-alias FIR is compensated (output sample m
/// corresponds to input time m·decimation/fs).  The FIR runs through
/// filter_decimate, so it is evaluated only at the kept outputs (one in
/// `decimation`) and no full-rate filtered record is formed; the result is
/// bit-identical to filtering every input sample and then decimating.
std::vector<std::complex<double>>
digital_downconvert(std::span<const double> x, const ddc_options& opt);

} // namespace sdrbist::dsp
