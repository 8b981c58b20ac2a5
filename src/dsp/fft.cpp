#include "dsp/fft.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/units.hpp"

namespace sdrbist::dsp {

namespace {

// Bit-reversal permutation for radix-2 FFT.
void bit_reverse(std::vector<cplx>& x) {
    const std::size_t n = x.size();
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(x[i], x[j]);
    }
}

// Bluestein chirp-z FFT for arbitrary n: expresses the DFT as a convolution
// that is evaluated with a power-of-two FFT.
std::vector<cplx> bluestein(const std::vector<cplx>& x) {
    const std::size_t n = x.size();
    const std::size_t m = next_pow2(2 * n - 1);

    // Chirp w[k] = exp(-i*pi*k^2/n); k^2 mod 2n keeps the argument small.
    std::vector<cplx> w(n);
    for (std::size_t k = 0; k < n; ++k) {
        const auto k2 = static_cast<double>((k * k) % (2 * n));
        w[k] = std::polar(1.0, -pi * k2 / static_cast<double>(n));
    }

    std::vector<cplx> a(m, cplx{0.0, 0.0});
    std::vector<cplx> b(m, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k)
        a[k] = x[k] * w[k];
    b[0] = std::conj(w[0]);
    for (std::size_t k = 1; k < n; ++k)
        b[k] = b[m - k] = std::conj(w[k]);

    fft_pow2_inplace(a);
    fft_pow2_inplace(b);
    for (std::size_t i = 0; i < m; ++i)
        a[i] *= b[i];
    // Inverse power-of-two FFT via conjugation.
    for (auto& v : a)
        v = std::conj(v);
    fft_pow2_inplace(a);
    const double scale = 1.0 / static_cast<double>(m);
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k)
        out[k] = std::conj(a[k]) * scale * w[k];
    return out;
}

} // namespace

void fft_pow2_inplace(std::vector<cplx>& x) {
    const std::size_t n = x.size();
    SDRBIST_EXPECTS(is_pow2(n));
    if (n == 1)
        return;
    bit_reverse(x);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = -two_pi / static_cast<double>(len);
        const cplx wlen = std::polar(1.0, ang);
        for (std::size_t i = 0; i < n; i += len) {
            cplx w{1.0, 0.0};
            for (std::size_t k = 0; k < len / 2; ++k) {
                const cplx u = x[i + k];
                const cplx v = x[i + k + len / 2] * w;
                x[i + k] = u + v;
                x[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
}

std::vector<cplx> fft(std::vector<cplx> x) {
    SDRBIST_EXPECTS(!x.empty());
    if (is_pow2(x.size())) {
        fft_pow2_inplace(x);
        return x;
    }
    return bluestein(x);
}

std::vector<double> fft_frequencies(std::size_t n, double fs) {
    SDRBIST_EXPECTS(n >= 1);
    SDRBIST_EXPECTS(fs > 0.0);
    std::vector<double> f(n);
    const double df = fs / static_cast<double>(n);
    const std::size_t half = (n + 1) / 2; // number of non-negative bins
    for (std::size_t i = 0; i < half; ++i)
        f[i] = df * static_cast<double>(i);
    for (std::size_t i = half; i < n; ++i)
        f[i] = df * (static_cast<double>(i) - static_cast<double>(n));
    return f;
}

std::vector<double> fftshift(std::vector<double> x) {
    const std::size_t n = x.size();
    const std::size_t half = (n + 1) / 2;
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n - half; ++i)
        out[i] = x[half + i];
    for (std::size_t i = 0; i < half; ++i)
        out[n - half + i] = x[i];
    return out;
}

} // namespace sdrbist::dsp
