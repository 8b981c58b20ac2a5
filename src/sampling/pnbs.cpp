#include "sampling/pnbs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/table_memo.hpp"
#include "core/units.hpp"
#include "dsp/phase_blend.hpp"
#include "dsp/window.hpp"

namespace sdrbist::sampling {

// ---- kernel -----------------------------------------------------------------

kernel_terms::kernel_terms(const band_spec& band) {
    band.validate();
    const double b = band.bandwidth();
    const double fl = band.f_lo;
    k = ceil_snapped(2.0 * fl / b);
    const double kd = static_cast<double>(k);
    f0 = kd * b - 2.0 * fl;       // sinc argument frequency (may be 0)
    c0 = f0 / b;                  // t = 0 value of the s0 envelope
    f1 = 2.0 * fl + b - kd * b;   // = B - f0
    c1 = f1 / b;
    s0_vanishes = std::abs(c0) < 1e-12;
}

kohlenberg_kernel::kohlenberg_kernel(const band_spec& band, double delay)
    : band_(band), delay_(delay), terms_(band) {
    SDRBIST_EXPECTS(delay_ > 0.0);
    const double b = band_.bandwidth();
    const double kd = static_cast<double>(terms_.k);

    // s0 product-form coefficients.
    a0_ = pi * kd * b;             // sin argument slope
    phi_ = kd * pi * b * delay_;
    sin_phi_ = std::sin(phi_);

    // s1 coefficients (k⁺ = k + 1).
    const double kp = kd + 1.0;
    a1_ = pi * kp * b;
    psi_ = kp * pi * b * delay_;
    sin_psi_ = std::sin(psi_);

    // Paper eq. (3): instability when D hits n·T/k (unless s0 vanishes)
    // or n·T/k⁺.
    if (!terms_.s0_vanishes)
        SDRBIST_EXPECTS(std::abs(sin_phi_) > 1e-9);
    SDRBIST_EXPECTS(std::abs(sin_psi_) > 1e-9);
}

double kohlenberg_kernel::s0(double t) const {
    if (terms_.s0_vanishes)
        return 0.0;
    return -std::sin(a0_ * t - phi_) * terms_.c0 * sinc(terms_.f0 * t) /
           sin_phi_;
}

double kohlenberg_kernel::s1(double t) const {
    return -std::sin(a1_ * t - psi_) * terms_.c1 * sinc(terms_.f1 * t) /
           sin_psi_;
}

bool kohlenberg_kernel::delay_is_stable(const band_spec& band, double delay,
                                        double rel_tol) {
    const kernel_terms terms(band);
    if (delay <= 0.0)
        return false;
    const double t = 1.0 / band.bandwidth();

    auto near_multiple = [&](double step) {
        const double q = delay / step;
        return std::abs(q - std::round(q)) * step < rel_tol * t;
    };
    if (!terms.s0_vanishes && near_multiple(t / static_cast<double>(terms.k)))
        return false;
    if (near_multiple(t / static_cast<double>(terms.k + 1)))
        return false;
    return true;
}

std::vector<double>
kohlenberg_kernel::forbidden_delays(const band_spec& band, double max_delay) {
    const kernel_terms terms(band);
    SDRBIST_EXPECTS(max_delay > 0.0);
    const double t = 1.0 / band.bandwidth();

    std::vector<double> out;
    // Each delay is computed as n·step (not by accumulating `+= step`,
    // which drifts by n·ulp over many multiples).
    auto add_multiples = [&](double step) {
        const double limit = max_delay * (1.0 + 1e-12);
        for (long n = 1; static_cast<double>(n) * step <= limit; ++n)
            out.push_back(static_cast<double>(n) * step);
    };
    if (!terms.s0_vanishes)
        add_multiples(t / static_cast<double>(terms.k));
    add_multiples(t / static_cast<double>(terms.k + 1));
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
    const kernel_terms terms(band);
    return pi * band.bandwidth() * static_cast<double>(terms.k + 1) *
           std::abs(delta_d);
}

double kohlenberg_kernel::required_delay_accuracy(const band_spec& band,
                                                  double delta_f) {
    const kernel_terms terms(band);
    SDRBIST_EXPECTS(delta_f > 0.0);
    return delta_f /
           (pi * band.bandwidth() * static_cast<double>(terms.k + 1));
}

// ---- kernel tables ----------------------------------------------------------

namespace {

/// The phase range every read falls in, [phase_lo, phase_lo + phase_span].
constexpr double phase_lo = -1.0;
constexpr double phase_span = 1.5;

/// Rows of a table: the range at phase_steps rows per unit, plus one pad
/// row below and two above for the cubic blend.
constexpr std::size_t range_steps = 3 * pnbs_tap_tables::phase_steps / 2;
constexpr std::size_t table_rows = range_steps + 3;

/// φ of table row r (exact: a dyadic step from phase_lo).
double row_phase(std::size_t r) {
    return phase_lo + (static_cast<double>(r) - 1.0) /
                          static_cast<double>(pnbs_tap_tables::phase_steps);
}

/// The band-independent factor of every table with `taps` taps and window
/// shape β: cell (r, j + half) holds w(x/span)/(π·x) at x = φ_r − j, and
/// w(0) where x = 0.  Built once per process for each (taps, β).
shared_table window_grid(std::size_t taps, double beta) {
    static table_memo<std::pair<std::size_t, std::uint64_t>> memo;
    return memo.get({taps, std::bit_cast<std::uint64_t>(beta)}, [&] {
        const dsp::continued_kaiser window(beta);
        const auto half = static_cast<long>(taps / 2);
        const double span = static_cast<double>(half) + 1.0;
        std::vector<double> grid(table_rows * taps);
        for (std::size_t r = 0; r < table_rows; ++r) {
            for (long j = -half; j <= half; ++j) {
                const double x = row_phase(r) - static_cast<double>(j);
                const double w = window(x / span);
                grid[r * taps + static_cast<std::size_t>(j + half)] =
                    x == 0.0 ? w : w / (pi * x);
            }
        }
        return grid;
    });
}

/// Term cells (−1)^{k_m·j}·w·sinc(γ·x) of one term into every row of
/// `out` (row stride 2·taps): the window grid times sin(π·γ·x)/γ, split
/// by angle addition into one sincos per row and one per column.
void fill_term(double* out, const std::vector<double>& grid, std::size_t taps,
               double gamma, long k_m) {
    const auto half = static_cast<long>(taps / 2);
    const bool alternate = (k_m & 1L) != 0;
    std::vector<double> col_cos(taps), col_sin(taps), sign(taps);
    for (long j = -half; j <= half; ++j) {
        const auto c = static_cast<std::size_t>(j + half);
        sign[c] = (alternate && (j & 1L) != 0) ? -1.0 : 1.0;
        const double a = pi * gamma * static_cast<double>(j);
        col_cos[c] = sign[c] * std::cos(a) / gamma;
        col_sin[c] = sign[c] * std::sin(a) / gamma;
    }
    for (std::size_t r = 0; r < table_rows; ++r) {
        const double a = pi * gamma * row_phase(r);
        const double sa = std::sin(a);
        const double ca = std::cos(a);
        const double* g = grid.data() + r * taps;
        double* row = out + r * 2 * taps;
        for (std::size_t c = 0; c < taps; ++c)
            row[c] = g[c] * (sa * col_cos[c] - ca * col_sin[c]);
    }
    // x = 0 where φ_r = j, i.e. j = −1 and 0: sinc(0) = 1.
    for (const long j : {-1L, 0L}) {
        const auto r = static_cast<std::size_t>(
            1 + static_cast<long>(pnbs_tap_tables::phase_steps) * (j + 1));
        const auto c = static_cast<std::size_t>(j + half);
        out[r * 2 * taps + c] = sign[c] * grid[r * taps + c];
    }
}

/// The outermost live table_storage_scope of this thread, if any.
thread_local table_storage_scope* storage_scope = nullptr;

} // namespace

table_storage_scope::table_storage_scope() : owner_(storage_scope == nullptr) {
    if (!owner_)
        return;
    spares_.reserve(max_spares); // so handing cells back never allocates
    storage_scope = this;
}

table_storage_scope::~table_storage_scope() {
    if (owner_)
        storage_scope = nullptr;
}

pnbs_tap_tables::pnbs_tap_tables(const band_spec& band, double period,
                                 const pnbs_options& opt)
    : terms(band), taps(opt.taps), half(static_cast<long>(opt.taps / 2)) {
    SDRBIST_EXPECTS(period > 0.0);
    SDRBIST_EXPECTS(opt.taps >= 5 && opt.taps % 2 == 1);
    const shared_table grid = window_grid(taps, opt.kaiser_beta);
    if (storage_scope != nullptr && !storage_scope->spares_.empty()) {
        cells = std::move(storage_scope->spares_.back());
        storage_scope->spares_.pop_back();
    }
    // Reused cells hold an earlier band's values: write every cell.
    cells.resize(table_rows * 2 * taps);
    if (terms.s0_vanishes) {
        for (std::size_t r = 0; r < table_rows; ++r)
            std::fill_n(cells.data() + r * 2 * taps, taps, 0.0);
    } else {
        fill_term(cells.data(), *grid, taps, terms.f0 * period, terms.k);
    }
    fill_term(cells.data() + taps, *grid, taps, terms.f1 * period,
              terms.k + 1);
}

pnbs_tap_tables::~pnbs_tap_tables() {
    if (storage_scope != nullptr && !cells.empty() &&
        storage_scope->spares_.size() < table_storage_scope::max_spares)
        storage_scope->spares_.push_back(std::move(cells));
}

dsp::phase_blend pnbs_tap_tables::blend_at(double phi) const {
    SDRBIST_EXPECTS(phi >= phase_lo && phi <= phase_lo + phase_span);
    return dsp::cubic_phase_blend((phi - phase_lo) / phase_span, range_steps);
}

pnbs_tap_tables::sums pnbs_tap_tables::read(const simd::kernel_ops& ops,
                                            const double* x, double phi,
                                            long j_lo,
                                            std::size_t count) const {
    const auto blend = blend_at(phi);
    const std::size_t stride = 2 * taps;
    const double* rows = cells.data() + blend.row * stride +
                         static_cast<std::size_t>(j_lo + half);
    sums s;
    if (!terms.s0_vanishes)
        s.h0 = ops.blend_dot(x, rows, stride, blend.w, count);
    s.h1 = ops.blend_dot(x, rows + taps, stride, blend.w, count);
    return s;
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
    // The odd stream reads the tables at frac − D̂/T ≥ −1.
    d_frac_ = kernel_.delay() / period_;
    SDRBIST_EXPECTS(d_frac_ <= 0.5);

    // The kernel's product form
    //   s0(τ) = -sin(a0·τ - φ)·c0·sinc(f0·τ)/sin φ
    // at τ = (frac - j)·T (even stream) and (j - frac)·T + D̂ (odd stream)
    // splits into per-call NCO sines, per-tap sign flips (-1)^{k·j} and the
    // windowed sincs the tables hold.
    const bool use_s0 = !kernel_.s0_vanishes();
    g0_ = use_s0 ? kernel_.c0() / kernel_.sin_phi() : 0.0;
    g1_ = kernel_.c1() / kernel_.sin_psi();
    cos_phi_ = std::cos(kernel_.phi());
    cos_psi_ = std::cos(kernel_.psi());
}

pnbs_reconstructor::point_frame
pnbs_reconstructor::locate(double t) const {
    point_frame p;
    const double pos = (t - t_start_) / period_;
    p.centre = static_cast<long>(std::llround(pos));
    p.frac = pos - static_cast<double>(p.centre); // [-0.5, 0.5]
    const auto n_max = static_cast<long>(even_.size()) - 1;

    // Tap offsets j = n - centre, clamped to the records once so the reads
    // run over contiguous memory.
    const long half = tables_.half;
    const long j_lo = std::max(p.centre - half, 0L) - p.centre;
    const long j_hi = std::min(p.centre + half, n_max) - p.centre;
    if (j_lo <= j_hi) {
        p.j_lo = j_lo;
        p.count = static_cast<std::size_t>(j_hi - j_lo + 1);
    }
    return p;
}

std::pair<pnbs_tap_tables::sums, pnbs_tap_tables::sums>
pnbs_reconstructor::read(const point_frame& p) const {
    const long first = p.centre + p.j_lo;
    return {tables_.read(*ops_, even_.data() + first, p.frac, p.j_lo,
                         p.count),
            tables_.read(*ops_, odd_.data() + first, p.frac - d_frac_,
                         p.j_lo, p.count)};
}

double pnbs_reconstructor::value(double t) const {
    const point_frame p = locate(t);
    if (p.count == 0)
        return 0.0;
    const auto [e, o] = read(p);

    // Per-call NCO factors: sin(a·τ - φ) at every tap differs from these
    // only by the (-1)^{k·j} flip the tables hold, so two sincos serve the
    // whole window (g0 is 0 when s0 vanishes).
    const double kd = static_cast<double>(kernel_.k());
    const double thk = pi * kd * p.frac;
    const double thp = pi * (kd + 1.0) * p.frac;
    const double sin_k = std::sin(thk), cos_k = std::cos(thk);
    const double sin_p = std::sin(thp), cos_p = std::cos(thp);
    const double s0e = -(sin_k * cos_phi_ - cos_k * kernel_.sin_phi()) * g0_;
    const double s1e = -(sin_p * cos_psi_ - cos_p * kernel_.sin_psi()) * g1_;
    const double s0o = sin_k * g0_;
    const double s1o = sin_p * g1_;
    return (s0e * e.h0 + s1e * e.h1) + (s0o * o.h0 + s1o * o.h1);
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
        const auto [e, o] = read(p);

        // Term m contributes g_m·e^{jπ·k_m·frac}·(E_m·e^{-jφ_m} - O_m);
        // s0 contributes nothing when it vanishes.
        std::complex<double> acc{0.0, 0.0};
        if (use_s0)
            acc = g0_ * std::polar(1.0, pi * kd * p.frac) *
                  (e.h0 * rot_phi - o.h0);
        acc += g1_ * std::polar(1.0, pi * (kd + 1.0) * p.frac) *
               (e.h1 * rot_psi - o.h1);

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
