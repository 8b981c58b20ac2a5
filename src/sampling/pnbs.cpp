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

// ---- reconstructor ----------------------------------------------------------

pnbs_reconstructor::pnbs_reconstructor(std::vector<double> even,
                                       std::vector<double> odd, double period,
                                       double t_start, const band_spec& band,
                                       double delay_hypothesis,
                                       const pnbs_options& opt)
    : even_(std::move(even)), odd_(std::move(odd)), period_(period),
      t_start_(t_start), kernel_(band, delay_hypothesis), opt_(opt),
      window_(opt.kaiser_beta), ops_(&simd::kernel_backend::select()) {
    SDRBIST_EXPECTS(period_ > 0.0);
    SDRBIST_EXPECTS(even_.size() == odd_.size());
    SDRBIST_EXPECTS(opt_.taps >= 5 && opt_.taps % 2 == 1);
    SDRBIST_EXPECTS(even_.size() > opt_.taps);
    // The kernel assumes T = 1/B; the caller's period must match the band.
    SDRBIST_EXPECTS(approx_equal(period_ * band.bandwidth(), 1.0, 1e-9));

    // Fused fast-path constants: the kernel's product form
    //   s0(τ) = -sin(a0·τ - φ)·c0·sinc(f0·τ)/sin φ
    // evaluated at τ = (frac - j)·T (even stream) and (j - frac)·T + D̂
    // (odd stream) splits into per-call sines, per-tap sign flips
    // (-1)^{k·j}, and per-tap sinc numerators sin(del·(frac - j)) whose
    // per-tap factors cos/sin(del·j) are tabulated below.
    half_ = static_cast<long>(opt_.taps / 2);
    inv_span_ = 1.0 / (static_cast<double>(half_) + 1.0);
    const double d_hat = kernel_.delay();
    d_frac_ = d_hat / period_;
    const bool s0_zero = kernel_.s0_vanishes();
    g0_ = s0_zero ? 0.0 : kernel_.c0() / kernel_.sin_phi();
    g1_ = kernel_.c1() / kernel_.sin_psi();
    cos_phi_ = std::cos(kernel_.phi());
    cos_psi_ = std::cos(kernel_.psi());
    del0_ = pi * kernel_.f0() * period_;
    del1_ = pi * kernel_.f1() * period_;
    inv_del0_ = s0_zero ? 0.0 : 1.0 / del0_;
    inv_del1_ = 1.0 / del1_;
    const double eps0 = pi * kernel_.f0() * d_hat;
    const double eps1 = pi * kernel_.f1() * d_hat;
    sin_eps0_ = std::sin(eps0);
    cos_eps0_ = std::cos(eps0);
    sin_eps1_ = std::sin(eps1);
    cos_eps1_ = std::cos(eps1);

    const std::size_t taps = opt_.taps;
    const bool k_odd = (kernel_.k() & 1L) != 0;
    phase_tabs_.resize(4 * taps);
    for (long j = -half_; j <= half_; ++j) {
        const auto i = static_cast<std::size_t>(j + half_);
        const bool j_odd = (j & 1L) != 0;
        const double sg0 = (k_odd && j_odd) ? -1.0 : 1.0;
        const double sg1 = (!k_odd && j_odd) ? -1.0 : 1.0;
        const double p0 = del0_ * static_cast<double>(j);
        const double p1 = del1_ * static_cast<double>(j);
        phase_tabs_[i] = sg0 * std::cos(p0);
        phase_tabs_[taps + i] = sg0 * std::sin(p0);
        phase_tabs_[2 * taps + i] = sg1 * std::cos(p1);
        phase_tabs_[3 * taps + i] = sg1 * std::sin(p1);
    }
}

pnbs_reconstructor::point_frame
pnbs_reconstructor::locate(double t) const {
    point_frame p;
    const double tr = t - t_start_;
    const double pos = tr / period_;
    p.centre = static_cast<long>(std::llround(pos));
    p.frac = pos - static_cast<double>(p.centre); // in [-0.5, 0.5]
    const auto n_max = static_cast<long>(even_.size()) - 1;

    // Tap offsets j = n - centre, clamped to the records once so the tap
    // loops run branch-free over contiguous memory.
    p.j_lo = std::max(p.centre - half_, 0L) - p.centre;
    p.j_hi = std::min(p.centre + half_, n_max) - p.centre;
    if (p.j_lo > p.j_hi)
        return p;
    p.count = static_cast<std::size_t>(p.j_hi - p.j_lo + 1);

    // Sinc numerator phases at j = 0: del·frac for the even stream and
    // π·f·D̂ - del·frac for the odd one.
    const double a0 = del0_ * p.frac;
    const double a1 = del1_ * p.frac;
    p.sin_a0 = std::sin(a0);
    p.cos_a0 = std::cos(a0);
    p.sin_a1 = std::sin(a1);
    p.cos_a1 = std::cos(a1);
    p.sin_b0 = sin_eps0_ * p.cos_a0 - cos_eps0_ * p.sin_a0;
    p.cos_b0 = cos_eps0_ * p.cos_a0 + sin_eps0_ * p.sin_a0;
    p.sin_b1 = sin_eps1_ * p.cos_a1 - cos_eps1_ * p.sin_a1;
    p.cos_b1 = cos_eps1_ * p.cos_a1 + sin_eps1_ * p.sin_a1;
    return p;
}

void pnbs_reconstructor::fill_taps(const point_frame& p, double s0e,
                                   double s1e, double s0o, double s1o,
                                   double* ce, double* co) const {
    // Stage 1: fill the per-tap coefficient arrays.  With the sign flips
    // folded into the tables, tap j's even numerator is
    //   (s0e/del0)·(sin a0·c0[j] - cos a0·s0[j]) + (s1e/del1)·(...)
    // over the even distance fj = frac - j, and the odd one
    //   (s0o/del0)·(sin b0·c0[j] + cos b0·s0[j]) + (s1o/del1)·(...)
    // over the odd distance d_frac - fj.
    const std::size_t taps = opt_.taps;
    const double* tab = phase_tabs_.data() + (p.j_lo + half_);
    const double e0 = s0e * inv_del0_;
    const double e1 = s1e * inv_del1_;
    const double o0 = s0o * inv_del0_;
    const double o1 = s1o * inv_del1_;
    const auto lut = window_.table();
    const simd::pnbs_fill_args args{
        tab,
        tab + taps,
        tab + 2 * taps,
        tab + 3 * taps,
        lut.data(),
        static_cast<double>(lut.size() - 1),
        p.frac,
        static_cast<double>(p.j_lo),
        d_frac_,
        inv_span_,
        {e0 * p.sin_a0, -e0 * p.cos_a0, e1 * p.sin_a1, -e1 * p.cos_a1},
        {o0 * p.sin_b0, o0 * p.cos_b0, o1 * p.sin_b1, o1 * p.cos_b1},
    };
    ops_->pnbs_fill(args, p.count, ce, co);

    // The sinc quotients above are ill-conditioned where the kernel
    // argument crosses zero (at most one tap per stream); patch those taps
    // with the exact library sinc.
    const bool s0_zero = kernel_.s0_vanishes();
    const bool k_odd = (kernel_.k() & 1L) != 0;
    const bool kp_odd = !k_odd;
    const double d_hat = kernel_.delay();
    const double frac = p.frac;
    const long j_e = std::llround(frac); // even-stream zero crossing
    if (j_e >= p.j_lo && j_e <= p.j_hi) {
        const auto i = static_cast<std::size_t>(j_e - p.j_lo);
        const double fj = frac - static_cast<double>(j_e);
        const double tau = fj * period_;
        const double sgn_k = (k_odd && (j_e & 1L) != 0) ? -1.0 : 1.0;
        const double sgn_kp = (kp_odd && (j_e & 1L) != 0) ? -1.0 : 1.0;
        const double snc0 = s0_zero ? 0.0 : sinc(kernel_.f0() * tau);
        const double snc1 = sinc(kernel_.f1() * tau);
        ce[i] = window_(fj * inv_span_) *
                (s0e * sgn_k * snc0 + s1e * sgn_kp * snc1);
    }
    const long j_o = std::llround(frac - d_frac_); // odd-stream crossing
    if (j_o >= p.j_lo && j_o <= p.j_hi) {
        const auto i = static_cast<std::size_t>(j_o - p.j_lo);
        const double fj = frac - static_cast<double>(j_o);
        const double tau = d_hat - fj * period_;
        const double sgn_k = (k_odd && (j_o & 1L) != 0) ? -1.0 : 1.0;
        const double sgn_kp = (kp_odd && (j_o & 1L) != 0) ? -1.0 : 1.0;
        const double snc0 = s0_zero ? 0.0 : sinc(kernel_.f0() * tau);
        const double snc1 = sinc(kernel_.f1() * tau);
        co[i] = window_((fj - d_frac_) * inv_span_) *
                (s0o * sgn_k * snc0 + s1o * sgn_kp * snc1);
    }
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
    if (p.count == 0)
        return 0.0;

    // Per-call NCO factors: sin(a·τ - φ) at every tap differs from these
    // only by the (-1)^{k·j} flip, so two sincos serve the whole window
    // (g0 is 0 when s0 vanishes).
    const double kd = static_cast<double>(kernel_.k());
    const double thk = pi * kd * p.frac;
    const double thp = pi * (kd + 1.0) * p.frac;
    const double sin_k = std::sin(thk), cos_k = std::cos(thk);
    const double sin_p = std::sin(thp), cos_p = std::cos(thp);
    const double s0e = -(sin_k * cos_phi_ - cos_k * kernel_.sin_phi()) * g0_;
    const double s1e = -(sin_p * cos_psi_ - cos_p * kernel_.sin_psi()) * g1_;
    const double s0o = sin_k * g0_;
    const double s1o = sin_p * g1_;

    const auto [ce, co] = tap_buffers(p.count);
    fill_taps(p, s0e, s1e, s0o, s1o, ce, co);

    // Stage 2: the fused even/odd pair of contiguous dot products, run on
    // the dispatched SIMD backend.
    const double* ev = even_.data() + (p.centre + p.j_lo);
    const double* od = odd_.data() + (p.centre + p.j_lo);
    double acc_e = 0.0;
    double acc_o = 0.0;
    ops_->dot2(ev, ce, od, co, p.count, &acc_e, &acc_o);
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
        if (p.count == 0)
            continue;
        const auto [ce, co] = tap_buffers(p.count);
        const double* ev = even_.data() + (p.centre + p.j_lo);
        const double* od = odd_.data() + (p.centre + p.j_lo);

        // Term m contributes g_m·e^{jπ·k_m·frac}·(E_m·e^{-jφ_m} - O_m),
        // with E_m / O_m the records dotted with term m's signed, windowed
        // sinc coefficients: the fill run with the other term's weights
        // zeroed.  s0 contributes nothing when it vanishes.
        double e = 0.0;
        double o = 0.0;
        std::complex<double> acc{0.0, 0.0};
        if (use_s0) {
            fill_taps(p, 1.0, 0.0, 1.0, 0.0, ce, co);
            ops_->dot2(ev, ce, od, co, p.count, &e, &o);
            acc = g0_ * std::polar(1.0, pi * kd * p.frac) * (e * rot_phi - o);
        }
        fill_taps(p, 0.0, 1.0, 0.0, 1.0, ce, co);
        ops_->dot2(ev, ce, od, co, p.count, &e, &o);
        acc += g1_ * std::polar(1.0, pi * (kd + 1.0) * p.frac) *
               (e * rot_psi - o);

        // j·Σ(...) is the analytic signal; mix it down by f_mix.
        out[i] = std::complex<double>(-acc.imag(), acc.real()) *
                 std::polar(1.0, -(two_pi * f_mix * t));
    }
    return out;
}

std::vector<double>
pnbs_reconstructor::values(std::span<const double> t) const {
    std::vector<double> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = value(t[i]);
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
