/// \file dft_reference.hpp
/// \brief Direct O(n²) DFT: the reference `dsp::fft` is checked against.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "core/units.hpp"

namespace sdrbist::testing {

inline std::vector<std::complex<double>>
dft_reference(std::span<const std::complex<double>> x) {
    const std::size_t n = x.size();
    std::vector<std::complex<double>> out(n, {0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t m = 0; m < n; ++m)
            out[k] += x[m] * std::polar(1.0, -two_pi * static_cast<double>(k) *
                                                 static_cast<double>(m) /
                                                 static_cast<double>(n));
    return out;
}

} // namespace sdrbist::testing
