#include "dsp/ddc.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "dsp/fir.hpp"

namespace sdrbist::dsp {

std::vector<double> ddc_lowpass(const ddc_options& opt) {
    SDRBIST_EXPECTS(opt.sample_rate > 0.0);
    SDRBIST_EXPECTS(opt.decimation >= 1);

    const double fs = opt.sample_rate;
    const double fs_out = fs / static_cast<double>(opt.decimation);
    const double cutoff = opt.cutoff_hz > 0.0 ? opt.cutoff_hz : 0.4 * fs_out;
    SDRBIST_EXPECTS(cutoff < fs / 2.0);

    // Anti-alias FIR: the transition band must fit between the cutoff and
    // the post-decimation Nyquist edge, otherwise wideband noise folds into
    // the output.  Kaiser length estimate N ≈ (A - 8)/(2.285·Δω).  The
    // windowed-sinc -6 dB point is placed mid-transition so the passband
    // (up to `cutoff`) stays flat.
    const double beta = opt.kaiser_beta > 0.0
                            ? opt.kaiser_beta
                            : kaiser_beta_for_attenuation(opt.stopband_db);
    const double trans_hz = std::max(fs_out / 2.0 - cutoff, 0.02 * fs_out);
    const double design_cutoff =
        std::min(cutoff + trans_hz / 2.0, 0.49 * fs / 2.0 * 2.0);
    std::size_t taps = opt.fir_taps;
    if (taps == 0) {
        const double d_omega = two_pi * trans_hz / fs;
        const double n_est = (opt.stopband_db - 8.0) / (2.285 * d_omega);
        taps = static_cast<std::size_t>(
            std::clamp(n_est, 63.0, 8191.0));
    }
    taps |= 1u; // force odd
    SDRBIST_EXPECTS(taps % 2 == 1);
    return design_lowpass_fir(taps, design_cutoff / fs, window_kind::kaiser,
                              beta);
}

std::vector<std::complex<double>>
digital_downconvert(std::span<const double> x, const ddc_options& opt) {
    SDRBIST_EXPECTS(!x.empty());
    const auto h = ddc_lowpass(opt);

    // Complex mix: exp(-j 2π fc n / fs).
    const double fs = opt.sample_rate;
    std::vector<std::complex<double>> mixed(x.size());
    const double dphi = -two_pi * opt.carrier_hz / fs;
    for (std::size_t n = 0; n < x.size(); ++n)
        mixed[n] = x[n] * std::polar(1.0, dphi * static_cast<double>(n));

    // Group-delay compensated filtering, evaluated only at kept outputs.
    auto out = filter_decimate(
        h, std::span<const std::complex<double>>(mixed.data(), mixed.size()),
        opt.decimation);
    // Factor 2: the mix halves the in-band amplitude (cos = (e^+ + e^-)/2).
    for (auto& v : out)
        v = 2.0 * v;
    return out;
}

} // namespace sdrbist::dsp
