/// \file fir.hpp
/// \brief Windowed-sinc lowpass design and complex-envelope filtering: the
///        decimating `filter_decimate` behind the DDC and the rational-rate
///        `upfirdn` used by the pulse shaper.  Coefficients are real;
///        samples are complex baseband.
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
std::vector<std::complex<double>>
filter_decimate(std::span<const double> h,
                std::span<const std::complex<double>> x,
                std::size_t decimation);

/// Polyphase-style upsample-filter-downsample:
/// insert (up-1) zeros between samples, filter with h, keep every down-th.
/// Output length: ceil((x.size()*up + h.size() - 1) / down) - but trimmed to
/// full convolution; no group-delay compensation (callers track delay).
std::vector<std::complex<double>>
upfirdn(std::span<const double> h, std::span<const std::complex<double>> x,
        std::size_t up, std::size_t down);

} // namespace sdrbist::dsp
