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

/// Dispatch the blended tap loop to the backend entry matching T.
inline double backend_blend(const simd::kernel_ops& ops, const double* x,
                            const double* rows, std::size_t stride,
                            const double* w, std::size_t n) {
    return ops.blend_dot(x, rows, stride, w, n);
}

inline std::complex<double>
backend_blend(const simd::kernel_ops& ops, const std::complex<double>* x,
              const double* rows, std::size_t stride, const double* w,
              std::size_t n) {
    return ops.blend_dot_cplx(x, rows, stride, w, n);
}

/// The process-wide copy of build_lut(half_taps, beta, phase_steps), shared
/// by real and complex interpolators alike (the table does not depend on T).
shared_table shared_lut(std::size_t half_taps, double beta,
                        std::size_t phase_steps) {
    static table_memo<std::tuple<std::size_t, std::uint64_t, std::size_t>>
        memo;
    return memo.get(
        {half_taps, std::bit_cast<std::uint64_t>(beta), phase_steps},
        [&] {
            return sinc_interpolator<double>::build_lut(half_taps, beta,
                                                        phase_steps);
        });
}

} // namespace

template <class T>
std::vector<double> sinc_interpolator<T>::build_lut(std::size_t half_taps,
                                                    double beta,
                                                    std::size_t phase_steps) {
    const std::size_t stride = 2 * half_taps;
    const std::size_t rows = phase_steps + 3;
    std::vector<double> lut(rows * stride);

    const double inv_half = 1.0 / static_cast<double>(half_taps);
    const double inv_i0b = 1.0 / bessel_i0(beta);
    // Pad-row cells fall (just) outside the window support; tabulating the
    // window's smooth analytic continuation there — I0(β√(1-u²)) becomes
    // J0(β√(u²-1)) for |u| > 1 — keeps the tabulated function C^∞ through
    // the support edge, so the cubic phase blend keeps its full order.
    // Points inside the support never read a continued value directly.
    auto window = [&](double u) {
        u = std::abs(u);
        if (u > 1.0)
            return bessel_j0(beta * std::sqrt(u * u - 1.0)) * inv_i0b;
        return bessel_i0(beta * std::sqrt(1.0 - u * u)) * inv_i0b;
    };

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

template <class T>
sinc_interpolator<T>::sinc_interpolator(std::vector<T> samples, double rate,
                                        std::size_t half_taps, double beta,
                                        std::size_t phase_steps)
    : samples_(std::move(samples)), rate_(rate), half_taps_(half_taps),
      phase_steps_(phase_steps), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(rate_ > 0.0);
    SDRBIST_EXPECTS(half_taps_ >= 4);
    SDRBIST_EXPECTS(samples_.size() > 2 * half_taps_);
    SDRBIST_EXPECTS(beta >= 0.0);
    SDRBIST_EXPECTS(phase_steps_ >= 64);
    lut_ = shared_lut(half_taps_, beta, phase_steps_);
}

template <class T> T sinc_interpolator<T>::eval(double pos) const {
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
        return T{};

    return backend_blend(*ops_, samples_.data() + n0,
                         r0 + static_cast<std::size_t>(n0 - lo), stride,
                         blend.w, static_cast<std::size_t>(n1 - n0 + 1));
}

template <class T>
std::vector<T> sinc_interpolator<T>::at(const std::vector<double>& t) const {
    std::vector<T> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = eval(t[i] * rate_);
    return out;
}

template <class T>
std::vector<T> sinc_interpolator<T>::uniform_grid(double t0, double rate_out,
                                                  std::size_t n) const {
    SDRBIST_EXPECTS(rate_out > 0.0);
    std::vector<T> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] =
            eval((t0 + static_cast<double>(i) / rate_out) * rate_);
    return out;
}

template class sinc_interpolator<double>;
template class sinc_interpolator<std::complex<double>>;

} // namespace sdrbist::dsp
