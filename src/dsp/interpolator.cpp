#include "dsp/interpolator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "core/math_util.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/table_memo.hpp"
#include "dsp/phase_blend.hpp"
#include "dsp/window.hpp"

namespace sdrbist::dsp {

namespace {

/// The process-wide copy of build_lut(half_taps, beta, phase_steps), shared
/// by every interpolator with those parameters.
shared_table shared_lut(std::size_t half_taps, double beta,
                        std::size_t phase_steps) {
    static table_memo<std::tuple<std::size_t, std::uint64_t, std::size_t>>
        memo;
    return memo.get(
        {half_taps, std::bit_cast<std::uint64_t>(beta), phase_steps},
        [&] {
            return sinc_interpolator::build_lut(half_taps, beta, phase_steps);
        });
}

} // namespace

std::vector<double> sinc_interpolator::build_lut(std::size_t half_taps,
                                                 double beta,
                                                 std::size_t phase_steps) {
    const std::size_t stride = 2 * half_taps;
    const std::size_t rows = phase_steps + 3;
    std::vector<double> lut(rows * stride);

    const double inv_half = 1.0 / static_cast<double>(half_taps);
    // Pad-row cells fall (just) outside the window support and read the
    // window's analytic continuation (dsp::continued_kaiser); points inside
    // the support never read a continued value directly.
    const continued_kaiser window(beta);

    // The coefficient g(frac, c) = sinc(d)·w(d/half) with
    // d = frac - (c - half + 1) obeys g(1 - frac, c) = g(frac, stride-1-c),
    // so only the lower half of the phase range needs transcendentals.
    const auto half = static_cast<long>(half_taps);
    for (std::size_t r = 0; r < rows; ++r) {
        const double frac = (static_cast<double>(r) - 1.0) /
                            static_cast<double>(phase_steps);
        double* row = lut.data() + r * stride;
        const std::size_t r_mirror = phase_steps + 2 - r;
        if (r > r_mirror && r_mirror < rows) {
            const double* src = lut.data() + r_mirror * stride;
            for (std::size_t c = 0; c < stride; ++c)
                row[c] = src[stride - 1 - c];
            continue;
        }
        for (std::size_t c = 0; c < stride; ++c) {
            const double d =
                frac - static_cast<double>(static_cast<long>(c) - half + 1);
            row[c] = sinc(d) * window(d * inv_half);
        }
    }
    return lut;
}

sinc_interpolator::sinc_interpolator(std::vector<std::complex<double>> samples,
                                     double rate, std::size_t half_taps,
                                     double beta, std::size_t phase_steps)
    : samples_(std::move(samples)), rate_(rate), half_taps_(half_taps),
      phase_steps_(phase_steps), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(rate_ > 0.0);
    SDRBIST_EXPECTS(half_taps_ >= 4);
    SDRBIST_EXPECTS(samples_.size() > 2 * half_taps_);
    SDRBIST_EXPECTS(beta >= 0.0);
    SDRBIST_EXPECTS(phase_steps_ >= 64);
    lut_ = shared_lut(half_taps_, beta, phase_steps_);
}

std::complex<double> sinc_interpolator::eval(double pos) const {
    const double fpos = std::floor(pos);
    const auto centre = static_cast<long>(fpos);
    const double frac = pos - fpos;
    const auto half = static_cast<long>(half_taps_);
    const auto n_samples = static_cast<long>(samples_.size());

    // Cubic Lagrange blend of the four phase rows bracketing `frac`.
    const auto blend = cubic_phase_blend(frac, phase_steps_);
    const std::size_t stride = 2 * half_taps_;
    const double* r0 = lut_->data() + blend.row * stride;

    // Range checks hoisted out of the tap loop: clamp once, then hand the
    // backend one branch-free contiguous blended dot product (the interior
    // case covers the full 2·half_taps window).
    const long lo = centre - half + 1;
    const long n0 = std::max(lo, 0L);
    const long n1 = std::min(centre + half, n_samples - 1);
    if (n1 < n0)
        return {};

    return ops_->blend_dot_cplx(samples_.data() + n0,
                                r0 + static_cast<std::size_t>(n0 - lo), stride,
                                blend.w, static_cast<std::size_t>(n1 - n0 + 1));
}

std::vector<std::complex<double>>
sinc_interpolator::at(const std::vector<double>& t) const {
    std::vector<std::complex<double>> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = eval(t[i] * rate_);
    return out;
}

} // namespace sdrbist::dsp
