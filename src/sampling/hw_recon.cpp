#include "sampling/hw_recon.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/units.hpp"
#include "dsp/window.hpp"

namespace sdrbist::sampling {

hw_pnbs_reconstructor::hw_pnbs_reconstructor(
    std::vector<double> even, std::vector<double> odd, double period,
    double t_start, const band_spec& band, double delay_hypothesis,
    const hw_recon_options& opt)
    : even_(std::move(even)), odd_(std::move(odd)), period_(period),
      t_start_(t_start), band_(band), delay_(delay_hypothesis), opt_(opt) {
    band_.validate();
    SDRBIST_EXPECTS(period_ > 0.0);
    SDRBIST_EXPECTS(even_.size() == odd_.size());
    SDRBIST_EXPECTS(opt_.taps >= 5 && opt_.taps % 2 == 1);
    SDRBIST_EXPECTS(even_.size() > opt_.taps);
    SDRBIST_EXPECTS(opt_.phase_steps >= 4);
    SDRBIST_EXPECTS(opt_.coeff_bits == 0 ||
                    (opt_.coeff_bits >= 4 && opt_.coeff_bits <= 32));
    SDRBIST_EXPECTS(approx_equal(period_ * band_.bandwidth(), 1.0, 1e-9));
    SDRBIST_EXPECTS(kohlenberg_kernel::delay_is_stable(band_, delay_));
    build_tables();
}

void hw_pnbs_reconstructor::build_tables() {
    const double b = band_.bandwidth();
    const kernel_terms terms(band_);
    const long k = terms.k;
    const double kd = static_cast<double>(k);
    const double kp = kd + 1.0;

    a0_ = pi * kd * b;
    a1_ = pi * kp * b;
    phi_ = kd * pi * b * delay_;
    psi_ = kp * pi * b * delay_;
    s0_vanishes_ = terms.s0_vanishes;
    const double sin_phi = std::sin(phi_);
    const double sin_psi = std::sin(psi_);
    if (!s0_vanishes_)
        SDRBIST_EXPECTS(std::abs(sin_phi) > 1e-9);
    SDRBIST_EXPECTS(std::abs(sin_psi) > 1e-9);

    const auto half = static_cast<long>(opt_.taps / 2);
    const double half_span = static_cast<double>(half) + 1.0;
    const std::size_t rows = opt_.phase_steps + 1;
    const std::size_t cols = opt_.taps;
    const double beta = opt_.kaiser_beta; // the exact continuous window

    auto alloc = [&] {
        return std::vector<std::vector<double>>(rows,
                                                std::vector<double>(cols));
    };
    env0_even_ = alloc();
    env1_even_ = alloc();
    env0_odd_ = alloc();
    env1_odd_ = alloc();

    const double g0 = s0_vanishes_ ? 0.0 : terms.c0 / sin_phi;
    const double g1 = terms.c1 / sin_psi;

    for (std::size_t p = 0; p < rows; ++p) {
        const double frac =
            static_cast<double>(p) / static_cast<double>(opt_.phase_steps);
        for (long j = -half; j <= half; ++j) {
            const auto col = static_cast<std::size_t>(j + half);
            const double sj_k = (k % 2 == 0 || j % 2 == 0) ? 1.0 : -1.0;
            const double sj_kp =
                ((k + 1) % 2 == 0 || j % 2 == 0) ? 1.0 : -1.0;

            // Even stream: kernel argument tau = (frac - j)·T.
            const double tau = (frac - static_cast<double>(j)) * period_;
            const double w_even = dsp::kaiser_window_at(
                (frac - static_cast<double>(j)) / half_span, beta);
            env0_even_[p][col] = sj_k * g0 * sinc(terms.f0 * tau) * w_even;
            env1_even_[p][col] = sj_kp * g1 * sinc(terms.f1 * tau) * w_even;

            // Odd stream: argument (j - frac)·T + D.
            const double tau_o =
                (static_cast<double>(j) - frac) * period_ + delay_;
            const double w_odd = dsp::kaiser_window_at(
                (frac - static_cast<double>(j) - delay_ / period_) /
                    half_span,
                beta);
            env0_odd_[p][col] = sj_k * g0 * sinc(terms.f0 * tau_o) * w_odd;
            env1_odd_[p][col] = sj_kp * g1 * sinc(terms.f1 * tau_o) * w_odd;
        }
    }

    // Coefficient quantisation to the configured ROM word length.
    if (opt_.coeff_bits > 0) {
        double max_v = 0.0;
        for (const auto* table :
             {&env0_even_, &env1_even_, &env0_odd_, &env1_odd_})
            for (const auto& row : *table)
                for (double v : row)
                    max_v = std::max(max_v, std::abs(v));
        if (max_v > 0.0) {
            const double levels =
                static_cast<double>((1u << (opt_.coeff_bits - 1)) - 1u);
            const double scale = levels / max_v;
            for (auto* table :
                 {&env0_even_, &env1_even_, &env0_odd_, &env1_odd_})
                for (auto& row : *table)
                    for (double& v : row)
                        v = std::round(v * scale) / scale;
        }
    }
}

double hw_pnbs_reconstructor::dot(
    const std::vector<std::vector<double>>& table,
    const std::vector<double>& samples, long n0, double frac) const {
    const auto half = static_cast<long>(opt_.taps / 2);
    const auto n_max = static_cast<long>(samples.size()) - 1;
    const double x = frac * static_cast<double>(opt_.phase_steps);
    const auto p0 = static_cast<std::size_t>(x);
    const double lambda = x - static_cast<double>(p0);
    const std::size_t p1 = std::min(p0 + 1, opt_.phase_steps);

    double acc = 0.0;
    for (long j = -half; j <= half; ++j) {
        const long n = n0 + j;
        if (n < 0 || n > n_max)
            continue;
        const auto col = static_cast<std::size_t>(j + half);
        const double c =
            opt_.interpolate_phases
                ? table[p0][col] + lambda * (table[p1][col] - table[p0][col])
                : table[lambda < 0.5 ? p0 : p1][col];
        acc += c * samples[static_cast<std::size_t>(n)];
    }
    return acc;
}

double hw_pnbs_reconstructor::value(double t) const {
    const double pos = (t - t_start_) / period_;
    const double fpos = std::floor(pos);
    const auto n0 = static_cast<long>(fpos);
    const double frac = pos - fpos;

    // NCO terms (full precision at runtime; a hardware NCO/CORDIC).  The
    // kernel argument (frac - j)·T depends only on the fractional position
    // and the tap offset — the record index n0 cancels — so one sine per
    // term serves every tap.
    const double c0_even =
        s0_vanishes_ ? 0.0 : -std::sin(a0_ * frac * period_ - phi_);
    const double c1_even = -std::sin(a1_ * frac * period_ - psi_);
    const double c0_odd =
        s0_vanishes_ ? 0.0
                     : -std::sin(a0_ * (delay_ - frac * period_) - phi_);
    const double c1_odd = -std::sin(a1_ * (delay_ - frac * period_) - psi_);

    double acc = 0.0;
    if (!s0_vanishes_) {
        acc += c0_even * dot(env0_even_, even_, n0, frac);
        acc += c0_odd * dot(env0_odd_, odd_, n0, frac);
    }
    acc += c1_even * dot(env1_even_, even_, n0, frac);
    acc += c1_odd * dot(env1_odd_, odd_, n0, frac);
    return acc;
}

double hw_pnbs_reconstructor::valid_begin() const {
    return t_start_ + static_cast<double>(opt_.taps / 2 + 1) * period_;
}

double hw_pnbs_reconstructor::valid_end() const {
    return t_start_ +
           (static_cast<double>(even_.size()) -
            static_cast<double>(opt_.taps / 2) - 2.0) *
               period_;
}

std::size_t hw_pnbs_reconstructor::rom_bytes() const {
    const std::size_t coeff_bytes =
        opt_.coeff_bits == 0 ? 8u
                             : static_cast<std::size_t>(
                                   (opt_.coeff_bits + 7) / 8);
    return 4u * (opt_.phase_steps + 1u) * opt_.taps * coeff_bytes;
}

} // namespace sdrbist::sampling
