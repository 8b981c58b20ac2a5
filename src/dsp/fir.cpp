#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"

namespace sdrbist::dsp {

std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff_norm,
                                       window_kind kind, double kaiser_beta) {
    SDRBIST_EXPECTS(taps >= 3);
    SDRBIST_EXPECTS(cutoff_norm > 0.0 && cutoff_norm < 0.5);
    const auto w = make_window(kind, taps, kaiser_beta);
    const double centre = static_cast<double>(taps - 1) / 2.0;
    std::vector<double> h(taps);
    for (std::size_t n = 0; n < taps; ++n) {
        const double m = static_cast<double>(n) - centre;
        h[n] = 2.0 * cutoff_norm * sinc(2.0 * cutoff_norm * m) * w[n];
    }
    // Normalise DC gain to exactly 1.
    double dc = 0.0;
    for (double v : h)
        dc += v;
    SDRBIST_ENSURES(dc > 0.0);
    for (double& v : h)
        v /= dc;
    return h;
}

std::vector<std::complex<double>>
filter_decimate(std::span<const double> h,
                std::span<const std::complex<double>> x,
                std::size_t decimation) {
    SDRBIST_EXPECTS(h.size() % 2 == 1);
    SDRBIST_EXPECTS(!x.empty());
    SDRBIST_EXPECTS(decimation >= 1);
    const std::size_t half = h.size() / 2;
    const std::size_t last = x.size() - 1;
    std::vector<std::complex<double>> y((x.size() + decimation - 1) /
                                        decimation);
    for (std::size_t m = 0; m < y.size(); ++m) {
        // y[m] = sum_k h[k] * x[c - k] with c = m·D + half; clamp k so that
        // c - k stays inside the record.
        const std::size_t c = m * decimation + half;
        const std::size_t k_lo = c > last ? c - last : 0;
        const std::size_t k_hi = std::min(c, h.size() - 1);
        std::complex<double> acc{};
        for (std::size_t k = k_lo; k <= k_hi; ++k)
            acc += h[k] * x[c - k];
        y[m] = acc;
    }
    return y;
}

std::vector<std::complex<double>>
upfirdn(std::span<const double> h, std::span<const std::complex<double>> x,
        std::size_t up, std::size_t down) {
    SDRBIST_EXPECTS(up >= 1 && down >= 1);
    SDRBIST_EXPECTS(!h.empty() && !x.empty());
    // Virtual upsampled-and-filtered length.
    const std::size_t full = x.size() * up + h.size() - 1;
    const std::size_t out_len = (full + down - 1) / down;
    std::vector<std::complex<double>> y(out_len);
    for (std::size_t m = 0; m < out_len; ++m) {
        const std::size_t pos = m * down; // index in upsampled+filtered stream
        std::complex<double> acc{};
        // Only indices where the upsampled stream is non-zero contribute:
        // pos - k = up * i  =>  k = pos - up*i.
        const std::size_t i_max = std::min(pos / up, x.size() - 1);
        // smallest i with k = pos - up*i < h.size()  =>  i > (pos - h.size())/up
        std::size_t i_min = 0;
        if (pos >= h.size())
            i_min = (pos - h.size()) / up + 1;
        for (std::size_t i = i_min; i <= i_max; ++i) {
            const std::size_t k = pos - up * i;
            if (k < h.size())
                acc += h[k] * x[i];
        }
        y[m] = acc;
    }
    return y;
}

} // namespace sdrbist::dsp
