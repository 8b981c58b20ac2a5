#include "bist/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "dsp/fir.hpp"

namespace sdrbist::bist {

envelope_plan plan_envelope(const sampling::pnbs_reconstructor& recon,
                            const spectrum_options& opt) {
    const auto& band = recon.kernel().band();
    envelope_plan plan;
    plan.t0 = recon.valid_begin();
    const double t_hi = recon.valid_end();
    SDRBIST_EXPECTS(t_hi > plan.t0);

    // The envelope timeline of an alias-free dense passband grid decimated
    // to a few × bandwidth.
    plan.dense_rate = opt.dense_rate_factor * 2.0 * band.f_hi;
    plan.n_dense = static_cast<std::size_t>(
        std::floor((t_hi - plan.t0) * plan.dense_rate));
    SDRBIST_EXPECTS(plan.n_dense >= 64);
    const double env_rate_target = opt.envelope_rate_min > 0.0
                                       ? opt.envelope_rate_min
                                       : 4.0 * band.bandwidth();
    plan.decimation = static_cast<std::size_t>(
        std::max(1.0, std::floor(plan.dense_rate / env_rate_target)));
    plan.rate = plan.dense_rate / static_cast<double>(plan.decimation);
    plan.count = (plan.n_dense + plan.decimation - 1) / plan.decimation;

    plan.mix_frequency =
        opt.mix_frequency > 0.0 ? opt.mix_frequency : band.centre();
    const double cutoff =
        opt.ddc_cutoff_hz > 0.0
            ? opt.ddc_cutoff_hz
            : 0.55 * band.bandwidth() +
                  std::abs(plan.mix_frequency - band.centre());

    // Oversample until band content at the reach folds beyond the FIR's
    // stopband edge (cutoff + trans) rather than into its passband.  A
    // cutoff wider than the reach stands in for it, which keeps the
    // cutoff below the M-rate Nyquist edge.
    const double trans = std::max(plan.rate / 2.0 - cutoff, 0.02 * plan.rate);
    const double reach = std::max({std::abs(band.f_lo - plan.mix_frequency),
                                   std::abs(band.f_hi - plan.mix_frequency),
                                   cutoff});
    plan.oversample = static_cast<std::size_t>(
        std::max(1.0, std::ceil((reach + cutoff + trans) / plan.rate)));

    plan.lowpass.sample_rate =
        static_cast<double>(plan.oversample) * plan.rate;
    plan.lowpass.decimation = plan.oversample;
    plan.lowpass.fir_taps = opt.ddc_taps;
    plan.lowpass.cutoff_hz = cutoff;
    return plan;
}

reconstructed_envelope
reconstruct_envelope(const sampling::pnbs_reconstructor& recon,
                     const spectrum_options& opt) {
    const envelope_plan plan = plan_envelope(recon, opt);
    // (count - 1)·M + 1 instants end on the last kept one and decimate to
    // exactly `count` outputs.
    const std::size_t m = plan.oversample;
    const auto fine = recon.envelope(plan.t0, plan.lowpass.sample_rate,
                                     (plan.count - 1) * m + 1,
                                     plan.mix_frequency);
    const auto h = dsp::ddc_lowpass(plan.lowpass);

    reconstructed_envelope out;
    out.samples = dsp::filter_decimate(
        h, std::span<const std::complex<double>>(fine.data(), fine.size()),
        m);
    out.rate = plan.rate;
    out.t0 = plan.t0;
    return out;
}

std::size_t auto_welch_segment(double envelope_rate, double occupied_bw,
                               std::size_t available_samples,
                               double bins_per_occupied) {
    SDRBIST_EXPECTS(envelope_rate > 0.0);
    SDRBIST_EXPECTS(occupied_bw > 0.0);
    SDRBIST_EXPECTS(available_samples >= 512);
    // RBW target: occupied_bw / bins_per_occupied  =>  segment bins needed.
    const double want =
        envelope_rate * bins_per_occupied / occupied_bw;
    std::size_t seg = 256;
    while (static_cast<double>(seg) < want && seg < 16384 &&
           2 * seg <= available_samples / 2)
        seg *= 2;
    return seg;
}

dsp::psd_result envelope_psd(const reconstructed_envelope& env,
                             std::size_t welch_segment) {
    SDRBIST_EXPECTS(env.samples.size() >= welch_segment);
    dsp::welch_options w;
    w.segment_length = welch_segment;
    w.overlap = 0.5;
    w.window = dsp::window_kind::hann;
    return dsp::welch_psd(
        std::span<const std::complex<double>>(env.samples.data(),
                                              env.samples.size()),
        env.rate, w);
}

} // namespace sdrbist::bist
