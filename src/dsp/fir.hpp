/// \file fir.hpp
/// \brief FIR filter design (windowed sinc) and filtering: the decimating
///        `filter_decimate` behind the DDC and the rational-rate `upfirdn`
///        used by the pulse shaper.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/window.hpp"

namespace sdrbist::dsp {

/// Windowed-sinc lowpass design.
/// \param taps         filter length (>= 3)
/// \param cutoff_norm  cutoff in cycles/sample, in (0, 0.5)
/// \param kind         window family
/// \param kaiser_beta  Kaiser beta when kind == kaiser
/// Passband gain is normalised to exactly 1 at DC.
std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff_norm,
                                       window_kind kind = window_kind::kaiser,
                                       double kaiser_beta = 8.6);

/// Windowed-sinc bandpass design with band edges (cycles/sample)
/// 0 < f1 < f2 < 0.5.  Gain normalised to 1 at the band centre.
std::vector<double> design_bandpass_fir(std::size_t taps, double f1, double f2,
                                        window_kind kind = window_kind::kaiser,
                                        double kaiser_beta = 8.6);

/// Full linear convolution (output length a.size() + b.size() - 1).
std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b);

/// Delay-compensated FIR filtering evaluated only at the kept outputs of a
/// decimation by `decimation`: returns
///   y[m] = (h * x)[m·decimation + (taps-1)/2],  m = 0 .. ceil(N/decimation)-1
/// with x zero-padded outside [0, N).  Each output sums h[k]·x[c - k],
/// c = m·decimation + (taps-1)/2, in ascending k over the taps that land
/// inside the record (the tap range is clamped once; only zero-padded terms
/// are skipped), so it is bit-identical to filtering at every input sample
/// and then keeping every decimation-th output, at 1/decimation of the
/// multiply-adds.
/// Odd-length h only; decimation >= 1.
std::vector<double> filter_decimate(std::span<const double> h,
                                    std::span<const double> x,
                                    std::size_t decimation);

/// Complex-input variant of filter_decimate (same real coefficients).
std::vector<std::complex<double>>
filter_decimate(std::span<const double> h,
                std::span<const std::complex<double>> x,
                std::size_t decimation);

/// Polyphase-style upsample-filter-downsample:
/// insert (up-1) zeros between samples, filter with h, keep every down-th.
/// Output length: ceil((x.size()*up + h.size() - 1) / down) - but trimmed to
/// full convolution; no group-delay compensation (callers track delay).
std::vector<double> upfirdn(std::span<const double> h,
                            std::span<const double> x, std::size_t up,
                            std::size_t down);

/// Complex-input upfirdn with real coefficients.
std::vector<std::complex<double>>
upfirdn(std::span<const double> h, std::span<const std::complex<double>> x,
        std::size_t up, std::size_t down);

/// Frequency response H(e^{j2πf}) of an FIR at normalised frequency
/// f in cycles/sample.
std::complex<double> fir_response(std::span<const double> h, double f_norm);

} // namespace sdrbist::dsp
