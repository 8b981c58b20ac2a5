/// \file fft.hpp
/// \brief Fast Fourier transform: iterative radix-2 plus Bluestein's
///        algorithm for arbitrary lengths.  Self-contained (no external DSP
///        dependency) — the library must run on an offline test bench.
#pragma once

#include <complex>
#include <vector>

namespace sdrbist::dsp {

using cplx = std::complex<double>;

/// In-place radix-2 DIT FFT.  Precondition: x.size() is a power of two.
void fft_pow2_inplace(std::vector<cplx>& x);

/// Forward FFT of arbitrary length (radix-2 when possible, else Bluestein).
std::vector<cplx> fft(std::vector<cplx> x);

/// Bin centre frequencies for an n-point FFT at sample rate fs
/// (0, fs/n, ..., positive then negative frequencies, numpy layout).
std::vector<double> fft_frequencies(std::size_t n, double fs);

/// Rotate a per-bin vector in FFT order (a PSD, the frequency axis) so
/// that frequency 0 sits in the middle (negative frequencies first).
std::vector<double> fftshift(std::vector<double> x);

} // namespace sdrbist::dsp
