#include "waveform/evm.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "waveform/srrc.hpp"

namespace sdrbist::waveform {

double evm_result::evm_db() const {
    return 20.0 * std::log10(std::max(evm_rms, 1e-300));
}

namespace {

// Continuous-time matched filtering: correlate the envelope with the SRRC
// centred at t_k + tau.  With the closed-form SRRC normalised so that
// integral srrc^2(u) du = 1 (u in symbol periods), the output approximates
// the transmitted symbol scaled by the channel's complex gain.
std::complex<double>
matched_output(std::span<const std::complex<double>> env, double fs,
               double t_centre, double symbol_period, double rolloff,
               double span_symbols) {
    const double t_lo = t_centre - span_symbols * symbol_period;
    const double t_hi = t_centre + span_symbols * symbol_period;
    auto n_lo = static_cast<long>(std::ceil(t_lo * fs));
    auto n_hi = static_cast<long>(std::floor(t_hi * fs));
    n_lo = std::max<long>(n_lo, 0);
    n_hi = std::min<long>(n_hi, static_cast<long>(env.size()) - 1);
    std::complex<double> acc{0.0, 0.0};
    for (long n = n_lo; n <= n_hi; ++n) {
        const double u =
            (static_cast<double>(n) / fs - t_centre) / symbol_period;
        acc += env[static_cast<std::size_t>(n)] * srrc_value(u, rolloff);
    }
    // Riemann sum dt / Ts converts to symbol-period units.
    return acc / (fs * symbol_period);
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
void evaluate_at_offset(std::span<const std::complex<double>> env, double fs,
                        const baseband_waveform& ref, double tau,
                        std::size_t k_lo, std::size_t k_hi,
                        double span_symbols, trial_result& out) {
    const double ts = 1.0 / ref.symbol_rate;
    auto& y = out.matched;
    y.resize(k_hi - k_lo);
    for (std::size_t k = k_lo; k < k_hi; ++k)
        y[k - k_lo] = matched_output(env, fs, ref.symbol_instant(k) + tau, ts,
                                     ref.rolloff, span_symbols);

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

evm_result measure_evm(std::span<const std::complex<double>> envelope,
                       double sample_rate, const baseband_waveform& reference,
                       const evm_options& opt) {
    SDRBIST_EXPECTS(sample_rate > 0.0);
    SDRBIST_EXPECTS(envelope.size() >= 16);
    SDRBIST_EXPECTS(opt.timing_steps >= 3 && opt.timing_steps % 2 == 1);
    SDRBIST_EXPECTS(reference.symbols.size() > 2 * opt.skip_symbols + 8);

    const double ts = 1.0 / reference.symbol_rate;
    const double span_symbols = 6.0; // matched-filter one-sided support
    // Envelope sample n sits at absolute time envelope_t0 + n/fs; shift to
    // the envelope-local timeline used by matched_output.
    const double t_shift = opt.envelope_t0;
    const double env_end =
        static_cast<double>(envelope.size() - 1) / sample_rate;

    // Usable symbol range: matched window plus worst-case tau inside data.
    const double guard = span_symbols * ts + opt.timing_search_span * ts;
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
        evaluate_at_offset(envelope, sample_rate, reference, tau - t_shift,
                           k_lo, k_hi, span_symbols, trial);
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
