#include "sampling/pnbs.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "dsp/window.hpp"

namespace sdrbist::sampling {

// ---- kernel -----------------------------------------------------------------

kohlenberg_kernel::kohlenberg_kernel(const band_spec& band, double delay)
    : band_(band), delay_(delay) {
    band_.validate();
    SDRBIST_EXPECTS(delay_ > 0.0);
    const double b = band_.bandwidth();
    const double fl = band_.f_lo;
    k_ = ceil_snapped(2.0 * fl / b);
    const double kd = static_cast<double>(k_);

    // s0 product-form coefficients.
    f0_ = kd * b - 2.0 * fl;       // sinc argument frequency (may be 0)
    c0_ = f0_ / b;                 // t = 0 value of the s0 envelope
    a0_ = pi * kd * b;             // sin argument slope
    phi_ = kd * pi * b * delay_;
    sin_phi_ = std::sin(phi_);
    s0_vanishes_ = std::abs(c0_) < 1e-12;

    // s1 coefficients (k⁺ = k + 1).
    const double kp = kd + 1.0;
    f1_ = 2.0 * fl + b - kd * b;   // = B - f0
    c1_ = f1_ / b;
    a1_ = pi * kp * b;
    psi_ = kp * pi * b * delay_;
    sin_psi_ = std::sin(psi_);

    // Paper eq. (3): instability when D hits n·T/k (unless s0 vanishes)
    // or n·T/k⁺.
    if (!s0_vanishes_)
        SDRBIST_EXPECTS(std::abs(sin_phi_) > 1e-9);
    SDRBIST_EXPECTS(std::abs(sin_psi_) > 1e-9);
}

double kohlenberg_kernel::s0(double t) const {
    if (s0_vanishes_)
        return 0.0;
    return -std::sin(a0_ * t - phi_) * c0_ * sinc(f0_ * t) / sin_phi_;
}

double kohlenberg_kernel::s1(double t) const {
    return -std::sin(a1_ * t - psi_) * c1_ * sinc(f1_ * t) / sin_psi_;
}

bool kohlenberg_kernel::delay_is_stable(const band_spec& band, double delay,
                                        double rel_tol) {
    band.validate();
    if (delay <= 0.0)
        return false;
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    const bool s0_vanishes = std::abs(k * b - 2.0 * band.f_lo) < 1e-12 * b;

    auto near_multiple = [&](double step) {
        const double q = delay / step;
        return std::abs(q - std::round(q)) * step < rel_tol * t;
    };
    if (!s0_vanishes && near_multiple(t / static_cast<double>(k)))
        return false;
    if (near_multiple(t / static_cast<double>(k + 1)))
        return false;
    return true;
}

std::vector<double>
kohlenberg_kernel::forbidden_delays(const band_spec& band, double max_delay) {
    band.validate();
    SDRBIST_EXPECTS(max_delay > 0.0);
    const double b = band.bandwidth();
    const double t = 1.0 / b;
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    const bool s0_vanishes = std::abs(k * b - 2.0 * band.f_lo) < 1e-12 * b;

    std::vector<double> out;
    // Each delay is computed as n·step (not by accumulating `+= step`,
    // which drifts by n·ulp over many multiples).
    auto add_multiples = [&](double step) {
        const double limit = max_delay * (1.0 + 1e-12);
        for (long n = 1; static_cast<double>(n) * step <= limit; ++n)
            out.push_back(static_cast<double>(n) * step);
    };
    if (!s0_vanishes)
        add_multiples(t / static_cast<double>(k));
    add_multiples(t / static_cast<double>(k + 1));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [&](double a, double c) {
                              return std::abs(a - c) < 1e-18;
                          }),
              out.end());
    return out;
}

double kohlenberg_kernel::optimal_delay(const band_spec& band) {
    band.validate();
    return 1.0 / (4.0 * band.centre());
}

double kohlenberg_kernel::error_bound(const band_spec& band, double delta_d) {
    band.validate();
    const double b = band.bandwidth();
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    return pi * b * static_cast<double>(k + 1) * std::abs(delta_d);
}

double kohlenberg_kernel::required_delay_accuracy(const band_spec& band,
                                                  double delta_f) {
    band.validate();
    SDRBIST_EXPECTS(delta_f > 0.0);
    const double b = band.bandwidth();
    const long k = ceil_snapped(2.0 * band.f_lo / b);
    return delta_f / (pi * b * static_cast<double>(k + 1));
}

// ---- shared tap tables -------------------------------------------------------

pnbs_tap_tables::pnbs_tap_tables(const band_spec& band, double period,
                                 const pnbs_options& opt)
    : period(period), window(opt.kaiser_beta) {
    band.validate();
    SDRBIST_EXPECTS(period > 0.0);
    SDRBIST_EXPECTS(opt.taps >= 5 && opt.taps % 2 == 1);
    // The kernel's D̂-free coefficients, computed as kohlenberg_kernel does.
    const double b = band.bandwidth();
    k = ceil_snapped(2.0 * band.f_lo / b);
    const double kd = static_cast<double>(k);
    f0 = kd * b - 2.0 * band.f_lo;
    f1 = 2.0 * band.f_lo + b - kd * b;
    s0_vanishes = std::abs(f0 / b) < 1e-12;
    del0 = pi * f0 * period;
    del1 = pi * f1 * period;
    inv_del0 = s0_vanishes ? 0.0 : 1.0 / del0;
    inv_del1 = 1.0 / del1;
    taps = opt.taps;
    half = static_cast<long>(taps / 2);
    inv_span = 1.0 / (static_cast<double>(half) + 1.0);

    const bool k_odd = (k & 1L) != 0;
    tabs.resize(4 * taps);
    for (long j = -half; j <= half; ++j) {
        const auto i = static_cast<std::size_t>(j + half);
        const bool j_odd = (j & 1L) != 0;
        const double sg0 = (k_odd && j_odd) ? -1.0 : 1.0;
        const double sg1 = (!k_odd && j_odd) ? -1.0 : 1.0;
        const double p0 = del0 * static_cast<double>(j);
        const double p1 = del1 * static_cast<double>(j);
        tabs[i] = sg0 * std::cos(p0);
        tabs[taps + i] = sg0 * std::sin(p0);
        tabs[2 * taps + i] = sg1 * std::cos(p1);
        tabs[3 * taps + i] = sg1 * std::sin(p1);
    }
}

pnbs_tap_tables::point pnbs_tap_tables::at(double frac, long j_lo,
                                            long j_hi) const {
    point p;
    p.frac = frac;
    p.j_lo = j_lo;
    p.j_hi = j_hi;
    if (j_lo > j_hi)
        return p;
    p.count = static_cast<std::size_t>(j_hi - j_lo + 1);
    // Sinc numerator phases at j = 0 of the even stream; the odd stream's,
    // π·f·D̂ - del·frac, follow by angle subtraction (set_odd_weights).
    const double a0 = del0 * frac;
    const double a1 = del1 * frac;
    p.sin_a0 = std::sin(a0);
    p.cos_a0 = std::cos(a0);
    p.sin_a1 = std::sin(a1);
    p.cos_a1 = std::cos(a1);
    return p;
}

pnbs_tap_tables::shift pnbs_tap_tables::delay(double d_hat) const {
    shift d;
    d.d_hat = d_hat;
    d.d_frac = d_hat / period;
    const double eps0 = pi * f0 * d_hat;
    const double eps1 = pi * f1 * d_hat;
    d.sin_eps0 = std::sin(eps0);
    d.cos_eps0 = std::cos(eps0);
    d.sin_eps1 = std::sin(eps1);
    d.cos_eps1 = std::cos(eps1);
    return d;
}

namespace {

using tap_point = pnbs_tap_tables::point;
using tap_shift = pnbs_tap_tables::shift;

/// Fill arguments of p's taps with both streams' weights zero.
simd::pnbs_fill_args fill_args(const pnbs_tap_tables& tb, const tap_point& p,
                               double d_frac) {
    const double* tab = tb.tabs.data() + (p.j_lo + tb.half);
    const auto lut = tb.window.table();
    return {
        tab,
        tab + tb.taps,
        tab + 2 * tb.taps,
        tab + 3 * tb.taps,
        lut.data(),
        static_cast<double>(lut.size() - 1),
        p.frac,
        static_cast<double>(p.j_lo),
        d_frac,
        tb.inv_span,
        {0.0, 0.0, 0.0, 0.0},
        {0.0, 0.0, 0.0, 0.0},
    };
}

// With the sign flips folded into the tables, tap j's even numerator is
//   (s0e/del0)·(sin a0·c0[j] - cos a0·s0[j]) + (s1e/del1)·(...)
// over the even distance fj = frac - j, and the odd one
//   (s0o/del0)·(sin b0·c0[j] + cos b0·s0[j]) + (s1o/del1)·(...)
// over the odd distance d_frac - fj, with b = π·f·D̂ - a.

void set_even_weights(const pnbs_tap_tables& tb, simd::pnbs_fill_args& a,
                      const tap_point& p, double s0e, double s1e) {
    const double e0 = s0e * tb.inv_del0;
    const double e1 = s1e * tb.inv_del1;
    a.even[0] = e0 * p.sin_a0;
    a.even[1] = -e0 * p.cos_a0;
    a.even[2] = e1 * p.sin_a1;
    a.even[3] = -e1 * p.cos_a1;
}

void set_odd_weights(const pnbs_tap_tables& tb, simd::pnbs_fill_args& a,
                     const tap_point& p, const tap_shift& d, double s0o,
                     double s1o) {
    const double o0 = s0o * tb.inv_del0;
    const double o1 = s1o * tb.inv_del1;
    const double sin_b0 = d.sin_eps0 * p.cos_a0 - d.cos_eps0 * p.sin_a0;
    const double cos_b0 = d.cos_eps0 * p.cos_a0 + d.sin_eps0 * p.sin_a0;
    const double sin_b1 = d.sin_eps1 * p.cos_a1 - d.cos_eps1 * p.sin_a1;
    const double cos_b1 = d.cos_eps1 * p.cos_a1 + d.sin_eps1 * p.sin_a1;
    a.odd[0] = o0 * sin_b0;
    a.odd[1] = o0 * cos_b0;
    a.odd[2] = o1 * sin_b1;
    a.odd[3] = o1 * cos_b1;
}

/// Coefficient of tap j at window argument u and kernel argument τ with
/// the library sinc: the fill's sinc quotients are ill-conditioned where τ
/// crosses zero (at most one tap per stream), so those taps are patched.
double crossing(const pnbs_tap_tables& tb, long j, double u, double tau,
                double w0, double w1) {
    const bool k_odd = (tb.k & 1L) != 0;
    const bool j_odd = (j & 1L) != 0;
    const double sgn_k = (k_odd && j_odd) ? -1.0 : 1.0;
    const double sgn_kp = (!k_odd && j_odd) ? -1.0 : 1.0;
    const double snc0 = tb.s0_vanishes ? 0.0 : sinc(tb.f0 * tau);
    const double snc1 = sinc(tb.f1 * tau);
    return tb.window(u) * (w0 * sgn_k * snc0 + w1 * sgn_kp * snc1);
}

void patch_even(const pnbs_tap_tables& tb, const tap_point& p, double s0e,
                double s1e, double* ce) {
    const long j_e = std::llround(p.frac);
    if (j_e >= p.j_lo && j_e <= p.j_hi) {
        const double fj = p.frac - static_cast<double>(j_e);
        ce[j_e - p.j_lo] = crossing(tb, j_e, fj * tb.inv_span,
                                    fj * tb.period, s0e, s1e);
    }
}

void patch_odd(const pnbs_tap_tables& tb, const tap_point& p,
               const tap_shift& d, double s0o, double s1o, double* co) {
    const long j_o = std::llround(p.frac - d.d_frac);
    if (j_o >= p.j_lo && j_o <= p.j_hi) {
        const double fj = p.frac - static_cast<double>(j_o);
        co[j_o - p.j_lo] = crossing(tb, j_o, (fj - d.d_frac) * tb.inv_span,
                                    d.d_hat - fj * tb.period, s0o, s1o);
    }
}

} // namespace

void pnbs_tap_tables::fill(const simd::kernel_ops& ops, const point& p,
                           const shift& d, double s0e, double s1e,
                           double s0o, double s1o, double* ce,
                           double* co) const {
    simd::pnbs_fill_args a = fill_args(*this, p, d.d_frac);
    set_even_weights(*this, a, p, s0e, s1e);
    set_odd_weights(*this, a, p, d, s0o, s1o);
    ops.pnbs_fill(a, p.count, ce, co);
    patch_even(*this, p, s0e, s1e, ce);
    patch_odd(*this, p, d, s0o, s1o, co);
}

void pnbs_tap_tables::fill_even(const simd::kernel_ops& ops, const point& p,
                                double s0e, double s1e, double* ce) const {
    simd::pnbs_fill_args a = fill_args(*this, p, 0.0);
    set_even_weights(*this, a, p, s0e, s1e);
    ops.pnbs_even_fill(a, p.count, ce);
    patch_even(*this, p, s0e, s1e, ce);
}

void pnbs_tap_tables::fill_odd(const simd::kernel_ops& ops, const point& p,
                               const shift& d, double s0o, double s1o,
                               double* co) const {
    simd::pnbs_fill_args a = fill_args(*this, p, d.d_frac);
    set_odd_weights(*this, a, p, d, s0o, s1o);
    ops.pnbs_odd_fill(a, p.count, co);
    patch_odd(*this, p, d, s0o, s1o, co);
}

// ---- reconstructor ----------------------------------------------------------

pnbs_reconstructor::pnbs_reconstructor(std::vector<double> even,
                                       std::vector<double> odd, double period,
                                       double t_start, const band_spec& band,
                                       double delay_hypothesis,
                                       const pnbs_options& opt)
    : even_(std::move(even)), odd_(std::move(odd)), period_(period),
      t_start_(t_start), kernel_(band, delay_hypothesis), opt_(opt),
      tables_(band, period, opt), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(even_.size() == odd_.size());
    SDRBIST_EXPECTS(even_.size() > opt_.taps);
    // The kernel assumes T = 1/B; the caller's period must match the band.
    SDRBIST_EXPECTS(approx_equal(period_ * band.bandwidth(), 1.0, 1e-9));

    // Fused fast-path constants: the kernel's product form
    //   s0(τ) = -sin(a0·τ - φ)·c0·sinc(f0·τ)/sin φ
    // evaluated at τ = (frac - j)·T (even stream) and (j - frac)·T + D̂
    // (odd stream) splits into per-call sines, per-tap sign flips
    // (-1)^{k·j}, and per-tap sinc numerators sin(del·(frac - j)) whose
    // per-tap factors cos/sin(del·j) are tabulated in tables_.
    shift_ = tables_.delay(kernel_.delay());
    g0_ = kernel_.s0_vanishes() ? 0.0 : kernel_.c0() / kernel_.sin_phi();
    g1_ = kernel_.c1() / kernel_.sin_psi();
    cos_phi_ = std::cos(kernel_.phi());
    cos_psi_ = std::cos(kernel_.psi());
}

pnbs_reconstructor::point_frame
pnbs_reconstructor::locate(double t) const {
    point_frame p;
    const double tr = t - t_start_;
    const double pos = tr / period_;
    p.centre = static_cast<long>(std::llround(pos));
    const double frac = pos - static_cast<double>(p.centre); // [-0.5, 0.5]
    const auto n_max = static_cast<long>(even_.size()) - 1;

    // Tap offsets j = n - centre, clamped to the records once so the tap
    // loops run branch-free over contiguous memory.
    const long half = tables_.half;
    p.tap = tables_.at(frac, std::max(p.centre - half, 0L) - p.centre,
                       std::min(p.centre + half, n_max) - p.centre);
    return p;
}

namespace {
/// Per-thread stage-1 coefficient buffers of at least `count` taps each.
std::pair<double*, double*> tap_buffers(std::size_t count) {
    static thread_local std::vector<double> ce_buf, co_buf;
    ce_buf.resize(count);
    co_buf.resize(count);
    return {ce_buf.data(), co_buf.data()};
}
} // namespace

double pnbs_reconstructor::value(double t) const {
    const point_frame p = locate(t);
    const auto& tap = p.tap;
    if (tap.count == 0)
        return 0.0;

    // Per-call NCO factors: sin(a·τ - φ) at every tap differs from these
    // only by the (-1)^{k·j} flip, so two sincos serve the whole window
    // (g0 is 0 when s0 vanishes).
    const double kd = static_cast<double>(kernel_.k());
    const double thk = pi * kd * tap.frac;
    const double thp = pi * (kd + 1.0) * tap.frac;
    const double sin_k = std::sin(thk), cos_k = std::cos(thk);
    const double sin_p = std::sin(thp), cos_p = std::cos(thp);
    const double s0e = -(sin_k * cos_phi_ - cos_k * kernel_.sin_phi()) * g0_;
    const double s1e = -(sin_p * cos_psi_ - cos_p * kernel_.sin_psi()) * g1_;
    const double s0o = sin_k * g0_;
    const double s1o = sin_p * g1_;

    const auto [ce, co] = tap_buffers(tap.count);
    tables_.fill(*ops_, tap, shift_, s0e, s1e, s0o, s1o, ce, co);

    // Stage 2: the fused even/odd pair of contiguous dot products, run on
    // the dispatched SIMD backend.
    const double* ev = even_.data() + (p.centre + tap.j_lo);
    const double* od = odd_.data() + (p.centre + tap.j_lo);
    double acc_e = 0.0;
    double acc_o = 0.0;
    ops_->dot2(ev, ce, od, co, tap.count, &acc_e, &acc_o);
    return acc_e + acc_o;
}

std::vector<std::complex<double>>
pnbs_reconstructor::envelope(double t0, double rate, std::size_t n,
                             double f_mix) const {
    SDRBIST_EXPECTS(rate > 0.0);
    std::vector<std::complex<double>> out(n);
    const double kd = static_cast<double>(kernel_.k());
    const bool use_s0 = !kernel_.s0_vanishes();
    const std::complex<double> rot_phi{cos_phi_, -kernel_.sin_phi()};
    const std::complex<double> rot_psi{cos_psi_, -kernel_.sin_psi()};
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(i) / rate;
        const point_frame p = locate(t);
        const auto& tap = p.tap;
        if (tap.count == 0)
            continue;
        const auto [ce, co] = tap_buffers(tap.count);
        const double* ev = even_.data() + (p.centre + tap.j_lo);
        const double* od = odd_.data() + (p.centre + tap.j_lo);

        // Term m contributes g_m·e^{jπ·k_m·frac}·(E_m·e^{-jφ_m} - O_m),
        // with E_m / O_m the records dotted with term m's signed, windowed
        // sinc coefficients: the fill run with the other term's weights
        // zeroed.  s0 contributes nothing when it vanishes.
        double e = 0.0;
        double o = 0.0;
        std::complex<double> acc{0.0, 0.0};
        if (use_s0) {
            tables_.fill(*ops_, tap, shift_, 1.0, 0.0, 1.0, 0.0, ce, co);
            ops_->dot2(ev, ce, od, co, tap.count, &e, &o);
            acc = g0_ * std::polar(1.0, pi * kd * tap.frac) *
                  (e * rot_phi - o);
        }
        tables_.fill(*ops_, tap, shift_, 0.0, 1.0, 0.0, 1.0, ce, co);
        ops_->dot2(ev, ce, od, co, tap.count, &e, &o);
        acc += g1_ * std::polar(1.0, pi * (kd + 1.0) * tap.frac) *
               (e * rot_psi - o);

        // j·Σ(...) is the analytic signal; mix it down by f_mix.
        out[i] = std::complex<double>(-acc.imag(), acc.real()) *
                 std::polar(1.0, -(two_pi * f_mix * t));
    }
    return out;
}

std::vector<double> pnbs_reconstructor::uniform(double t0, double rate,
                                                std::size_t n) const {
    SDRBIST_EXPECTS(rate > 0.0);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = value(t0 + static_cast<double>(i) / rate);
    return out;
}

double pnbs_reconstructor::valid_begin() const {
    return valid_span(even_.size(), period_, t_start_, opt_.taps).first;
}

double pnbs_reconstructor::valid_end() const {
    return valid_span(even_.size(), period_, t_start_, opt_.taps).second;
}

std::pair<double, double>
pnbs_reconstructor::valid_span(std::size_t record_len, double period,
                               double t_start, std::size_t taps) {
    SDRBIST_EXPECTS(period > 0.0);
    SDRBIST_EXPECTS(taps >= 5 && taps % 2 == 1);
    SDRBIST_EXPECTS(record_len > taps);
    return {t_start + static_cast<double>(taps / 2 + 1) * period,
            t_start + (static_cast<double>(record_len) -
                       static_cast<double>(taps / 2) - 2.0) *
                          period};
}

} // namespace sdrbist::sampling
