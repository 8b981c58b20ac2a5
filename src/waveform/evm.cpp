#include "waveform/evm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "core/simd/kernel_backend.hpp"
#include "dsp/phase_blend.hpp"
#include "waveform/srrc.hpp"

namespace sdrbist::waveform {

namespace {

/// The table srrc_matched_filter reads (see its class comment).
std::vector<double> build_srrc_table(double rolloff, double sps,
                                     std::size_t half) {
    constexpr std::size_t steps = srrc_matched_filter::phase_steps;
    const std::size_t stride = 2 * half + 2;
    std::vector<double> table((steps + 3) * stride);
    for (std::size_t r = 0; r < steps + 3; ++r) {
        const double phase =
            (static_cast<double>(r) - 1.0) / static_cast<double>(steps);
        double* row = table.data() + r * stride;
        for (std::size_t c = 0; c < stride; ++c) {
            const double j =
                static_cast<double>(c) - static_cast<double>(half);
            row[c] = srrc_value((j - phase) / sps, rolloff);
        }
    }
    return table;
}

/// The process-wide table for (rolloff, sps).
shared_table shared_srrc_table(double rolloff, double sps, std::size_t half) {
    static table_memo<std::pair<std::uint64_t, std::uint64_t>> memo;
    return memo.get({std::bit_cast<std::uint64_t>(rolloff),
                     std::bit_cast<std::uint64_t>(sps)},
                    [&] { return build_srrc_table(rolloff, sps, half); });
}

struct trial_result {
    double evm = 0.0;
    std::complex<double> gain{1.0, 0.0};
    std::vector<std::complex<double>> matched; ///< y[k - k_lo]
};

// Matched-filter every symbol in [k_lo, k_hi) at offset tau into `out`
// (its buffer is reused across trials), fit the gain and score the EVM.
// Only the winning trial's outputs are kept; `corrected` is formed once
// from them after the search.
void evaluate_at_offset(const matched_filter& filter,
                        const baseband_waveform& ref, double tau,
                        std::size_t k_lo, std::size_t k_hi,
                        trial_result& out) {
    auto& y = out.matched;
    y.resize(k_hi - k_lo);
    for (std::size_t k = k_lo; k < k_hi; ++k)
        y[k - k_lo] = filter(ref.symbol_instant(k) + tau);

    // Least-squares complex gain: g = <y, s> / <s, s>.
    std::complex<double> num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        num += y[i] * std::conj(ref.symbols[k_lo + i]);
        den += std::norm(ref.symbols[k_lo + i]);
    }
    SDRBIST_EXPECTS(den > 0.0);
    const std::complex<double> g = num / den;
    SDRBIST_EXPECTS(std::abs(g) > 0.0);

    out.gain = g;
    double err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        err += std::norm(y[i] / g - ref.symbols[k_lo + i]);
    out.evm = std::sqrt(err / den);
}

} // namespace

srrc_matched_filter::srrc_matched_filter(double sample_rate,
                                         double symbol_rate, double rolloff)
    : fs_(sample_rate), ts_(1.0 / symbol_rate),
      ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(sample_rate > 0.0 && symbol_rate > 0.0);
    SDRBIST_EXPECTS(rolloff > 0.0 && rolloff <= 1.0);
    const double sps = sample_rate / symbol_rate;
    half_ =
        static_cast<std::size_t>(std::ceil(matched_span_symbols * sps)) + 2;
    table_ = shared_srrc_table(rolloff, sps, half_);
}

std::complex<double>
srrc_matched_filter::operator()(std::span<const std::complex<double>> env,
                                double t_centre) const {
    const double t_lo = t_centre - matched_span_symbols * ts_;
    const double t_hi = t_centre + matched_span_symbols * ts_;
    auto n_lo = static_cast<long>(std::ceil(t_lo * fs_));
    auto n_hi = static_cast<long>(std::floor(t_hi * fs_));
    n_lo = std::max<long>(n_lo, 0);
    n_hi = std::min<long>(n_hi, static_cast<long>(env.size()) - 1);
    if (n_hi < n_lo)
        return {0.0, 0.0};

    // Sample n = fpos + j sits (j - frac)/sps symbols from the centre:
    // column j + H of the rows blended at phase frac.
    const double pos = t_centre * fs_;
    const double fpos = std::floor(pos);
    const auto blend = dsp::cubic_phase_blend(pos - fpos, phase_steps);
    const long c_lo =
        n_lo - static_cast<long>(fpos) + static_cast<long>(half_);
    const long c_hi = c_lo + (n_hi - n_lo);
    SDRBIST_EXPECTS(c_lo >= 0 && c_hi < static_cast<long>(stride()));
    const double* rows = table_->data() + blend.row * stride() +
                         static_cast<std::size_t>(c_lo);
    const auto acc = ops_->blend_dot_cplx(
        env.data() + n_lo, rows, stride(), blend.w,
        static_cast<std::size_t>(n_hi - n_lo + 1));
    // Riemann sum dt / Ts converts to symbol-period units.
    return acc / (fs_ * ts_);
}

evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt) {
    const srrc_matched_filter mf(sample_rate, reference.symbol_rate,
                                 reference.rolloff);
    return measure_evm(envelope, sample_rate, reference, opt,
                       [&](double t) { return mf(envelope, t); });
}

evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt, const matched_filter& filter) {
    SDRBIST_EXPECTS(sample_rate > 0.0);
    SDRBIST_EXPECTS(envelope.size() >= 16);
    SDRBIST_EXPECTS(opt.timing_steps >= 3 && opt.timing_steps % 2 == 1);
    SDRBIST_EXPECTS(reference.symbols.size() > 2 * opt.skip_symbols + 8);

    const double ts = 1.0 / reference.symbol_rate;
    // Envelope sample n sits at absolute time envelope_t0 + n/fs; shift to
    // the envelope-local timeline the matched filter works on.
    const double t_shift = opt.envelope_t0;
    const double env_end =
        static_cast<double>(envelope.size() - 1) / sample_rate;

    // Usable symbol range: matched window plus worst-case tau inside data.
    const double guard =
        matched_span_symbols * ts + opt.timing_search_span * ts;
    std::size_t k_lo = opt.skip_symbols;
    while (k_lo < reference.symbols.size() &&
           reference.symbol_instant(k_lo) - t_shift - guard < 0.0)
        ++k_lo;
    std::size_t k_hi = reference.symbols.size() - opt.skip_symbols;
    while (k_hi > k_lo &&
           reference.symbol_instant(k_hi - 1) - t_shift + guard > env_end)
        --k_hi;
    SDRBIST_EXPECTS(k_hi > k_lo + 8);

    // Coarse timing search.
    double best_tau = 0.0;
    trial_result best;
    best.evm = std::numeric_limits<double>::infinity();
    trial_result trial;
    auto try_offset = [&](double tau) {
        evaluate_at_offset(filter, reference, tau - t_shift, k_lo, k_hi,
                           trial);
        if (trial.evm < best.evm) {
            std::swap(best, trial);
            best_tau = tau;
        }
    };
    for (std::size_t s = 0; s < opt.timing_steps; ++s) {
        const double frac = static_cast<double>(s) /
                                static_cast<double>(opt.timing_steps - 1) * 2.0 -
                            1.0;
        try_offset(frac * opt.timing_search_span * ts);
    }

    // One golden-section-style refinement pass around the best grid point.
    const double step0 = 2.0 * opt.timing_search_span * ts /
                         static_cast<double>(opt.timing_steps - 1);
    double step = step0 / 2.0;
    for (int it = 0; it < 6; ++it) {
        // Both neighbours of the best offset as it stood before the pair.
        const double centre = best_tau;
        for (const double tau : {centre - step, centre + step})
            try_offset(tau);
        step /= 2.0;
    }

    evm_result out;
    out.evm_rms = best.evm;
    out.gain = best.gain;
    out.timing_offset = best_tau;
    out.received_symbols.resize(best.matched.size());
    for (std::size_t i = 0; i < best.matched.size(); ++i)
        out.received_symbols[i] = best.matched[i] / best.gain;
    double peak = 0.0;
    double sym_rms = 0.0;
    for (std::size_t i = 0; i < out.received_symbols.size(); ++i) {
        peak = std::max(peak, std::abs(out.received_symbols[i] -
                                       reference.symbols[k_lo + i]));
        sym_rms += std::norm(reference.symbols[k_lo + i]);
    }
    sym_rms = std::sqrt(sym_rms /
                        static_cast<double>(out.received_symbols.size()));
    out.evm_peak = peak / sym_rms;
    return out;
}

} // namespace sdrbist::waveform
