/// \file pnbs_yardstick.hpp
/// \brief Direct per-tap evaluation of the truncated PNBS reconstruction
///        (paper eq. (6)): the reference the fused
///        `sampling::pnbs_reconstructor` fast path is bounded against.
///
/// Built from the reconstructor's own constructor inputs.  Every tap calls
/// the Kohlenberg kernel's transcendentals (`kohlenberg_kernel::s`) and the
/// exact continuous Kaiser window (`dsp::kaiser_window_at`) at the tap's
/// distance in periods, skipping taps outside the records.  It rejects what
/// the reconstructor rejects: unequal or too-short records, a tap count
/// that is even or below 5, a period that is not 1/B, an unstable D̂.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "dsp/window.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"

namespace sdrbist::testing {

class pnbs_yardstick {
public:
    pnbs_yardstick(std::vector<double> even, std::vector<double> odd,
                   double period, double t_start,
                   const sampling::band_spec& band, double delay_hypothesis,
                   const sampling::pnbs_options& opt = {})
        : even_(std::move(even)), odd_(std::move(odd)), period_(period),
          t_start_(t_start), kernel_(band, delay_hypothesis), taps_(opt.taps),
          beta_(opt.kaiser_beta) {
        SDRBIST_EXPECTS(even_.size() == odd_.size());
        SDRBIST_EXPECTS(taps_ >= 5 && taps_ % 2 == 1);
        SDRBIST_EXPECTS(even_.size() > taps_);
        SDRBIST_EXPECTS(approx_equal(period_ * band.bandwidth(), 1.0, 1e-9));
    }

    /// f(t) ≈ Σ_n f(nT)·s(t - nT)·w + f(nT + D̂)·s(nT + D̂ - t)·w.
    [[nodiscard]] double value(double t) const {
        const double tr = t - t_start_;
        const double pos = tr / period_;
        const auto centre = static_cast<long>(std::llround(pos));
        const auto half = static_cast<long>(taps_ / 2);
        const auto n_max = static_cast<long>(even_.size()) - 1;
        const double half_span = static_cast<double>(half) + 1.0;
        const double d_hat = kernel_.delay();
        const double d_frac = d_hat / period_;

        double acc = 0.0;
        for (long n = centre - half; n <= centre + half; ++n) {
            if (n < 0 || n > n_max)
                continue;
            const double nt = static_cast<double>(n) * period_;
            // Even stream: f(nT)·s(t - nT), windowed by distance in periods.
            const double u0 = (pos - static_cast<double>(n)) / half_span;
            acc += even_[static_cast<std::size_t>(n)] * kernel_.s(tr - nt) *
                   dsp::kaiser_window_at(u0, beta_);
            // Odd stream: f(nT+D)·s(nT + D - t).
            const double u1 =
                (pos - static_cast<double>(n) - d_frac) / half_span;
            acc += odd_[static_cast<std::size_t>(n)] *
                   kernel_.s(nt + d_hat - tr) *
                   dsp::kaiser_window_at(u1, beta_);
        }
        return acc;
    }

    /// n values at t0, t0 + 1/rate, ...
    [[nodiscard]] std::vector<double> uniform(double t0, double rate,
                                              std::size_t n) const {
        std::vector<double> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = value(t0 + static_cast<double>(i) / rate);
        return out;
    }

private:
    std::vector<double> even_;
    std::vector<double> odd_;
    double period_;
    double t_start_;
    sampling::kohlenberg_kernel kernel_;
    std::size_t taps_;
    double beta_;
};

} // namespace sdrbist::testing
