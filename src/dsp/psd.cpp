#include "dsp/psd.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"

namespace sdrbist::dsp {

double psd_result::band_power(double f_lo, double f_hi) const {
    SDRBIST_EXPECTS(f_lo <= f_hi);
    if (frequency.size() < 2)
        return 0.0;
    const double df = frequency[1] - frequency[0];
    double p = 0.0;
    for (std::size_t i = 0; i < frequency.size(); ++i)
        if (frequency[i] >= f_lo && frequency[i] <= f_hi)
            p += density[i] * df;
    return p;
}

double psd_result::peak_density(double f_lo, double f_hi) const {
    SDRBIST_EXPECTS(f_lo <= f_hi);
    double m = 0.0;
    for (std::size_t i = 0; i < frequency.size(); ++i)
        if (frequency[i] >= f_lo && frequency[i] <= f_hi)
            m = std::max(m, density[i]);
    return m;
}

// Scale follows the standard Welch normalisation
// Pxx = |X|^2 / (fs * sum(w^2)).
psd_result welch_psd(std::span<const std::complex<double>> x, double fs,
                     const welch_options& opt) {
    SDRBIST_EXPECTS(fs > 0.0);
    SDRBIST_EXPECTS(opt.segment_length >= 8);
    SDRBIST_EXPECTS(opt.overlap >= 0.0 && opt.overlap < 1.0);
    SDRBIST_EXPECTS(x.size() >= opt.segment_length);

    const std::size_t seg = opt.segment_length;
    const auto hop = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(static_cast<double>(seg) * (1.0 - opt.overlap))));
    const auto w = make_window(opt.window, seg, opt.kaiser_beta);
    const double w_pow = window_power(w);

    std::vector<double> acc(seg, 0.0);
    std::size_t count = 0;
    for (std::size_t start = 0; start + seg <= x.size(); start += hop) {
        std::vector<cplx> buf(seg);
        for (std::size_t i = 0; i < seg; ++i)
            buf[i] = x[start + i] * w[i];
        buf = fft(std::move(buf));
        for (std::size_t i = 0; i < seg; ++i)
            acc[i] += std::norm(buf[i]);
        ++count;
    }
    SDRBIST_ENSURES(count > 0);

    const double scale = 1.0 / (fs * w_pow * static_cast<double>(count));
    for (double& v : acc)
        v *= scale;

    psd_result out;
    out.resolution_bw = fs * w_pow / (window_sum(w) * window_sum(w));
    out.frequency = fftshift(fft_frequencies(seg, fs));
    out.density = fftshift(std::move(acc));
    return out;
}

} // namespace sdrbist::dsp
