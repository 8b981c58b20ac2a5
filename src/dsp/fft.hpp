/// \file fft.hpp
/// \brief Fast Fourier transform: iterative radix-2 plus Bluestein's
///        algorithm for arbitrary lengths.  Self-contained (no external DSP
///        dependency) — the library must run on an offline test bench.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace sdrbist::dsp {

using cplx = std::complex<double>;

/// In-place radix-2 DIT FFT.  Precondition: x.size() is a power of two.
void fft_pow2_inplace(std::vector<cplx>& x);

/// Forward FFT of arbitrary length (radix-2 when possible, else Bluestein).
std::vector<cplx> fft(std::vector<cplx> x);

/// Inverse FFT (any length); satisfies ifft(fft(x)) == x to rounding error.
std::vector<cplx> ifft(std::vector<cplx> x);

/// FFT of a real sequence (returns the full complex spectrum, length n).
std::vector<cplx> fft_real(std::span<const double> x);

/// Bin centre frequencies for an n-point FFT at sample rate fs
/// (0, fs/n, ..., positive then negative frequencies, numpy layout).
std::vector<double> fft_frequencies(std::size_t n, double fs);

/// Rotate an FFT output so that frequency 0 sits in the middle
/// (negative frequencies first).
std::vector<cplx> fftshift(std::vector<cplx> x);

/// Same rotation for a real-valued vector (e.g. the frequency axis).
std::vector<double> fftshift(std::vector<double> x);

} // namespace sdrbist::dsp
