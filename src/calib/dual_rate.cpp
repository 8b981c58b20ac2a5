#include "calib/dual_rate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace sdrbist::calib {

bool dual_rate_conditions_ok(const sampling::band_spec& band_fast,
                             const sampling::band_spec& band_slow) {
    band_fast.validate();
    band_slow.validate();
    const double b = band_fast.bandwidth();
    const double b1 = band_slow.bandwidth();
    SDRBIST_EXPECTS(b1 < b);

    const auto k = sampling::kernel_terms(band_fast).k;
    const double kp = static_cast<double>(k + 1);
    const double k1 = static_cast<double>(sampling::kernel_terms(band_slow).k);
    const double k1p = k1 + 1.0;

    const double lhs = kp * b;
    const double tol = 1e-6 * lhs;
    if (std::abs(lhs - k1 * b1) < tol)
        return false; // eq. (9a)
    if (std::abs(lhs - k1p * b1) < tol)
        return false; // eq. (9b)
    return true;
}

bool dual_rate_conditions_ok(const dual_rate_capture& capture) {
    const double b = capture.band_fast.bandwidth();
    const double b1 = capture.band_slow.bandwidth();
    SDRBIST_EXPECTS(approx_equal(capture.fast.period_s * b, 1.0, 1e-9));
    SDRBIST_EXPECTS(approx_equal(capture.slow.period_s * b1, 1.0, 1e-9));
    return dual_rate_conditions_ok(capture.band_fast, capture.band_slow);
}

double max_search_delay(const sampling::band_spec& band_fast,
                        const sampling::band_spec& band_slow) {
    const double b = band_fast.bandwidth();
    const double b1 = band_slow.bandwidth();
    const auto k = sampling::kernel_terms(band_fast).k;
    const auto k1 = sampling::kernel_terms(band_slow).k;
    const double kp = static_cast<double>(k + 1);
    const double k1p = static_cast<double>(k1 + 1);
    return std::min(1.0 / (kp * b), 1.0 / (k1p * b1));
}

double max_search_delay(const dual_rate_capture& capture) {
    return max_search_delay(capture.band_fast, capture.band_slow);
}

namespace {

// Choose a slow-band centre offset (relative to the fast band centre) such
// that eq. (9) holds and the occupied signal still fits the shifted band;
// NaN when no candidate offset works (e.g. the carrier is an exact
// multiple of B1), so choose_band_plan can probe fast-band placements
// instead.  The fit constraint is relative to `signal_centre` (the
// carrier), which may differ from the fast band's centre when the fast
// band itself was shifted.
double try_slow_band_offset(const sampling::band_spec& band_fast,
                            double slow_bandwidth, double occupied_bw,
                            double signal_centre) {
    const double b1 = slow_bandwidth;
    const double b = band_fast.bandwidth();
    const double fc = band_fast.centre();
    const auto k = sampling::kernel_terms(band_fast).k;
    const double kp_b = static_cast<double>(k + 1) * b;

    // Largest |slow-band centre - signal centre| that keeps the occupied
    // band inside, with a small guard for the band-select filter skirt.
    const double max_signal_offset =
        b1 / 2.0 - occupied_bw / 2.0 - 0.02 * b1;
    // Convert to a constraint on the offset from the *fast* centre.
    const double centre_shift = fc - signal_centre;
    const double max_offset_pos = max_signal_offset - centre_shift;
    const double max_offset_neg = -max_signal_offset - centre_shift;
    if (max_offset_pos < max_offset_neg)
        return std::numeric_limits<double>::quiet_NaN();

    // For a centre shift `off`, the slow-band ratio is
    //   g(off) = 2·f_lo1/B1 = (2·fc + 2·off)/B1 - 1,
    // and k1 = ceil(g).  Enumerate k1 candidates reachable within the
    // offset budget, skip the ones violating eq. (9), and take the offset
    // of smallest magnitude whose k1 interval is admissible.
    auto g_of = [&](double off) { return (2.0 * fc + 2.0 * off) / b1 - 1.0; };
    const double g_lo = g_of(max_offset_neg);
    const double g_hi = g_of(max_offset_pos);
    const auto c_min = static_cast<long>(std::ceil(g_lo));
    const auto c_max = static_cast<long>(std::ceil(g_hi));

    const double guard = 0.02 * b1; // stay clear of the interval edges
    double best_offset = 0.0;
    bool found = false;
    for (long c = c_min; c <= c_max; ++c) {
        const double cb = static_cast<double>(c) * b1;
        const double tol = 1e-6 * kp_b;
        if (std::abs(kp_b - cb) < tol || std::abs(kp_b - (cb + b1)) < tol)
            continue; // eq. (9) violated for this k1
        // Offsets giving ceil(g) == c:  g in (c-1, c].
        const double lo = (static_cast<double>(c - 1) * b1 - 2.0 * fc) / 2.0 +
                          b1 / 2.0 + guard;
        const double hi = (cb - 2.0 * fc) / 2.0 + b1 / 2.0 - guard;
        const double clamped_lo = std::max(lo, max_offset_neg);
        const double clamped_hi = std::min(hi, max_offset_pos);
        if (clamped_lo > clamped_hi)
            continue;
        // Offset of smallest magnitude inside the admissible interval.
        const double off = std::clamp(0.0, clamped_lo, clamped_hi);
        if (!found || std::abs(off) < std::abs(best_offset)) {
            best_offset = off;
            found = true;
        }
    }
    if (!found)
        return std::numeric_limits<double>::quiet_NaN();
    return best_offset;
}

// The discrimination's probe: five tones spread evenly over
// carrier ± tone_spread/2 · occupied, read through 61-tap kernels.
constexpr double tone_spread = 0.8;
constexpr sampling::pnbs_options discrimination_opt{61, 8.0};

} // namespace

double dual_rate_discrimination(const band_plan& plan, double carrier_hz,
                                double occupied_bw) {
    plan.fast.validate();
    plan.slow.validate();
    SDRBIST_EXPECTS(occupied_bw > 0.0);
    const double b = plan.fast.bandwidth();
    const double b1 = plan.slow.bandwidth();
    const double m = max_search_delay(plan.fast, plan.slow);

    // Pick a stable probe delay and stable wrong hypotheses.
    auto stabilise = [&](double d) {
        while (!sampling::kohlenberg_kernel::delay_is_stable(plan.fast, d) ||
               !sampling::kohlenberg_kernel::delay_is_stable(plan.slow, d))
            d *= 1.013;
        return d;
    };
    const double d_true = stabilise(0.40 * m);
    const double d_low = stabilise(0.28 * m);
    const double d_high = stabilise(0.52 * m);

    // Deterministic synthetic multitone across the occupied band.
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i) {
        rf::tone t;
        t.frequency_hz = carrier_hz + (static_cast<double>(i) / 4.0 - 0.5) *
                                          tone_spread * occupied_bw;
        t.amplitude = 1.0;
        t.phase_rad = 0.7 * static_cast<double>(i) + 0.3;
        tones.push_back(t);
    }
    const std::size_t n_fast = 360;
    const double t_period = 1.0 / b;
    const double t1_period = 1.0 / b1;
    const rf::multitone_signal sig(
        std::move(tones), static_cast<double>(n_fast) * t_period + 2.0 * m);

    dual_rate_capture cap;
    cap.band_fast = plan.fast;
    cap.band_slow = plan.slow;
    cap.fast.period_s = t_period;
    cap.slow.period_s = t1_period;
    cap.fast.t_start = cap.slow.t_start = 0.0;
    cap.fast.true_delay_s = cap.slow.true_delay_s = d_true;
    const std::size_t n_slow = n_fast / 2;
    cap.fast.even.resize(n_fast);
    cap.fast.odd.resize(n_fast);
    cap.slow.even.resize(n_slow);
    cap.slow.odd.resize(n_slow);
    for (std::size_t k = 0; k < n_fast; ++k) {
        const double t = static_cast<double>(k) * t_period;
        cap.fast.even[k] = sig.value(t);
        cap.fast.odd[k] = sig.value(t + d_true);
    }
    for (std::size_t k = 0; k < n_slow; ++k) {
        const double t = static_cast<double>(k) * t1_period;
        cap.slow.even[k] = sig.value(t);
        cap.slow.odd[k] = sig.value(t + d_true);
    }

    const auto [lo, hi] = valid_probe_interval(cap, discrimination_opt);
    rng gen(0x51C3);
    const auto probes = make_probe_times(gen, 120, lo, hi);

    double power = 0.0;
    for (double t : probes) {
        const double v = sig.value(t);
        power += v * v;
    }
    power /= static_cast<double>(probes.size());
    SDRBIST_ENSURES(power > 0.0);

    const dual_rate_cost cost(cap, probes, discrimination_opt);
    return std::min(cost(d_low), cost(d_high)) / power;
}

bool plan_is_blind(const band_plan& plan, double carrier_hz,
                   double occupied_bw) {
    const double guard =
        plan.fast.bandwidth() / static_cast<double>(discrimination_opt.taps);
    const double lo = carrier_hz - 0.5 * tone_spread * occupied_bw - guard;
    const double hi = carrier_hz + 0.5 * tone_spread * occupied_bw + guard;
    // k_m·B of the kernel term whose sub-band holds [lo, hi] (term 0:
    // [f_lo, f_lo + f0], term 1: the rest of the band), 0 if neither does.
    const auto fold = [&](const sampling::band_spec& band) {
        const sampling::kernel_terms terms(band);
        const double split = band.f_lo + terms.f0;
        const double k = static_cast<double>(terms.k);
        if (lo >= band.f_lo && hi <= split)
            return k * band.bandwidth();
        if (lo >= split && hi <= band.f_hi)
            return (k + 1.0) * band.bandwidth();
        return 0.0;
    };
    const double fast = fold(plan.fast);
    return fast > 0.0 && std::abs(fold(plan.slow) - fast) < 1e-6 * fast;
}

std::vector<band_plan> candidate_band_plans(double carrier_hz,
                                            double fast_bandwidth,
                                            double slow_bandwidth,
                                            double occupied_bw,
                                            double fast_occupied_bw) {
    SDRBIST_EXPECTS(carrier_hz > 0.0);
    SDRBIST_EXPECTS(slow_bandwidth > 0.0 &&
                    slow_bandwidth < fast_bandwidth);
    SDRBIST_EXPECTS(occupied_bw > 0.0);
    if (fast_occupied_bw <= 0.0)
        fast_occupied_bw = occupied_bw;

    // Candidate fast-band shifts, preferring the centred band.  The shift
    // budget keeps the widest graded signal (and a skirt guard) well inside
    // the fast band.
    const double b = fast_bandwidth;
    const double budget =
        b / 2.0 - std::max(occupied_bw, fast_occupied_bw) / 2.0 - 0.05 * b;
    std::vector<band_plan> plans;
    for (const double frac : {0.0, 0.025, -0.025, 0.05, -0.05, 0.075, -0.075,
                              0.1, -0.1}) {
        const double off_f = frac * b;
        if (std::abs(off_f) > budget && frac != 0.0)
            continue;
        const auto fast = sampling::band_around(carrier_hz + off_f, b);
        const double off_s = try_slow_band_offset(fast, slow_bandwidth,
                                                  occupied_bw, carrier_hz);
        if (std::isnan(off_s))
            continue;
        band_plan plan;
        plan.fast = fast;
        plan.slow =
            sampling::band_around(fast.centre() + off_s, slow_bandwidth);
        plan.fast_offset_hz = off_f;
        plan.slow_offset_hz = fast.centre() + off_s - carrier_hz;
        SDRBIST_ENSURES(dual_rate_conditions_ok(plan.fast, plan.slow));
        plans.push_back(plan);
    }
    return plans;
}

band_plan_choice search_band_plans(std::span<const double> carriers,
                                   double fast_bandwidth,
                                   double slow_bandwidth, double occupied_bw,
                                   double fast_occupied_bw,
                                   double min_discrimination) {
    SDRBIST_EXPECTS(!carriers.empty());
    // A blind plan reads at most blind_discrimination, so it cannot pass a
    // higher threshold: it only matters to the fallback below.
    const bool defer = min_discrimination > blind_discrimination;
    struct candidate {
        band_plan plan;
        double carrier_hz;
        double discrimination; // NaN while deferred
    };
    std::vector<candidate> tried;
    band_plan_choice choice;
    for (const double carrier : carriers) {
        const auto plans = candidate_band_plans(
            carrier, fast_bandwidth, slow_bandwidth, occupied_bw,
            fast_occupied_bw);
        SDRBIST_EXPECTS(!plans.empty()); // no admissible plan at all
        for (const band_plan& plan : plans) {
            double disc = std::numeric_limits<double>::quiet_NaN();
            if (!defer || !plan_is_blind(plan, carrier, occupied_bw)) {
                disc = dual_rate_discrimination(plan, carrier, occupied_bw);
                ++choice.evaluated;
                if (disc >= min_discrimination) {
                    choice.plan = plan;
                    choice.carrier_hz = carrier;
                    choice.discrimination = disc;
                    return choice;
                }
            }
            tried.push_back({plan, carrier, disc});
        }
    }
    // No plan passed: the first maximum in search order, deferred plans
    // measured now.
    for (candidate& c : tried) {
        if (std::isnan(c.discrimination)) {
            c.discrimination =
                dual_rate_discrimination(c.plan, c.carrier_hz, occupied_bw);
            ++choice.evaluated;
        }
        if (c.discrimination > choice.discrimination) {
            choice.plan = c.plan;
            choice.carrier_hz = c.carrier_hz;
            choice.discrimination = c.discrimination;
        }
    }
    SDRBIST_ENSURES(choice.discrimination >= 0.0);
    return choice;
}

band_plan choose_band_plan(double carrier_hz, double fast_bandwidth,
                           double slow_bandwidth, double occupied_bw,
                           double fast_occupied_bw,
                           double min_discrimination,
                           double* discrimination) {
    const auto choice = search_band_plans(
        {&carrier_hz, 1}, fast_bandwidth, slow_bandwidth, occupied_bw,
        fast_occupied_bw, min_discrimination);
    if (discrimination)
        *discrimination = choice.discrimination;
    return choice.plan;
}

dual_rate_cost::dual_rate_cost(const dual_rate_capture& capture,
                               std::span<const double> probe_times,
                               const sampling::pnbs_options& opt)
    : ops_(&simd::kernel_backend::select()),
      fast_(make_stream(capture.fast, capture.band_fast, probe_times, opt)),
      slow_(make_stream(capture.slow, capture.band_slow, probe_times, opt)) {
    SDRBIST_EXPECTS(!probe_times.empty());
}

dual_rate_cost::stream
dual_rate_cost::make_stream(const adc::nonuniform_capture& rec,
                            const sampling::band_spec& band,
                            std::span<const double> probe_times,
                            const sampling::pnbs_options& opt) const {
    stream s{band, rec.period_s,
             sampling::pnbs_tap_tables(band, rec.period_s, opt), rec.odd,
             {}, {}};
    SDRBIST_EXPECTS(rec.even.size() == rec.odd.size());
    SDRBIST_EXPECTS(rec.even.size() > opt.taps);
    SDRBIST_EXPECTS(approx_equal(rec.period_s * band.bandwidth(), 1.0, 1e-9));
    const auto& tb = s.tables;
    const double kd = static_cast<double>(tb.terms.k);

    s.frames.reserve(probe_times.size());
    for (const double t : probe_times) {
        frame f;
        const double pos = (t - rec.t_start) / rec.period_s;
        const long centre = std::llround(pos);
        SDRBIST_EXPECTS(centre - tb.half >= 0 &&
                        centre + tb.half <
                            static_cast<long>(rec.even.size()));
        f.first = static_cast<std::size_t>(centre - tb.half);
        f.frac = pos - static_cast<double>(centre);
        const double thk = pi * kd * f.frac;
        const double thp = pi * (kd + 1.0) * f.frac;
        f.sin_k = std::sin(thk);
        f.cos_k = std::cos(thk);
        f.sin_p = std::sin(thp);
        f.cos_p = std::cos(thp);
        const auto e = tb.read(*ops_, rec.even.data() + f.first, f.frac,
                               -tb.half, tb.taps);
        f.e0 = e.h0;
        f.e1 = e.h1;
        f.base = tb.blend_at(f.frac).row + 3;
        s.frames.push_back(f);
    }
    s.slabs.resize(tb.rows());
    return s;
}

dual_rate_cost::hypothesis dual_rate_cost::hypothesis_of(const stream& s,
                                                         double d_hat) {
    // The kernel's constructor rejects an unstable D̂ (paper eq. (3)).
    const sampling::kohlenberg_kernel kern(s.band, d_hat);
    hypothesis h;
    h.d_frac = d_hat / s.period;
    h.g0 = kern.s0_vanishes() ? 0.0 : kern.c0() / kern.sin_phi();
    h.g1 = kern.c1() / kern.sin_psi();
    h.cos_phi = std::cos(kern.phi());
    h.sin_phi = kern.sin_phi();
    h.cos_psi = std::cos(kern.psi());
    h.sin_psi = kern.sin_psi();
    return h;
}

const double* dual_rate_cost::slab(const stream& s, std::size_t o) const {
    std::vector<double>& sums = s.slabs[o];
    if (!sums.empty())
        return sums.data();
    const auto& tb = s.tables;
    const std::size_t probes = s.frames.size();
    sums.assign(2 * probes, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < probes; ++i) {
        const frame& f = s.frames[i];
        if (o > f.base || f.base - o >= tb.rows())
            continue;
        const std::size_t r = f.base - o;
        const double* x = s.odd.data() + f.first;
        sums[i] = tb.terms.s0_vanishes ? 0.0 : ops_->dot(x, tb.row(r, 0),
                                                         tb.taps);
        sums[probes + i] = ops_->dot(x, tb.row(r, 1), tb.taps);
    }
    return sums.data();
}

double dual_rate_cost::probe_value(const stream& s, const hypothesis& h,
                                   std::size_t i) const {
    const frame& f = s.frames[i];
    // Odd stream: the term sums at frac − D̂/T, blended from the row sums
    // of rows base − o … base − o + 3, with the NCO weights
    // sin(π·k_m·frac)·g_m.
    const auto blend = s.tables.blend_at(f.frac - h.d_frac);
    const std::size_t o = f.base - blend.row;
    SDRBIST_EXPECTS(o >= 3);
    const std::size_t probes = s.frames.size();
    double o0 = 0.0;
    double o1 = 0.0;
    for (std::size_t q = 0; q < 4; ++q) {
        const double* sums = slab(s, o - q);
        o0 += blend.w[q] * sums[i];
        o1 += blend.w[q] * sums[probes + i];
    }

    // Even stream: term m is E_m scaled by −sin(π·k_m·frac − φ_m)·g_m.
    const double s0e = -(f.sin_k * h.cos_phi - f.cos_k * h.sin_phi) * h.g0;
    const double s1e = -(f.sin_p * h.cos_psi - f.cos_p * h.sin_psi) * h.g1;
    return (s0e * f.e0 + s1e * f.e1) +
           (f.sin_k * h.g0 * o0 + f.sin_p * h.g1 * o1);
}

double dual_rate_cost::operator()(double delay_hypothesis) const {
    const hypothesis hf = hypothesis_of(fast_, delay_hypothesis);
    const hypothesis hs = hypothesis_of(slow_, delay_hypothesis);
    const std::size_t probes = fast_.frames.size();
    double acc = 0.0;
    for (std::size_t i = 0; i < probes; ++i) {
        const double d =
            probe_value(fast_, hf, i) - probe_value(slow_, hs, i);
        acc += d * d;
    }
    return acc / static_cast<double>(probes);
}

std::vector<double> make_probe_times(rng& gen, std::size_t n, double t_lo,
                                     double t_hi) {
    SDRBIST_EXPECTS(n >= 1);
    SDRBIST_EXPECTS(t_lo < t_hi);
    auto t = gen.uniform_vector(n, t_lo, t_hi);
    std::sort(t.begin(), t.end());
    return t;
}

std::pair<double, double>
valid_probe_interval(const dual_rate_capture& capture,
                     const sampling::pnbs_options& opt) {
    // The valid spans depend only on record geometry.
    const auto span = [&](const adc::nonuniform_capture& rec) {
        SDRBIST_EXPECTS(rec.even.size() == rec.odd.size());
        return sampling::pnbs_reconstructor::valid_span(
            rec.even.size(), rec.period_s, rec.t_start, opt.taps);
    };
    const auto fast = span(capture.fast);
    const auto slow = span(capture.slow);
    const double lo = std::max(fast.first, slow.first);
    const double hi = std::min(fast.second, slow.second);
    SDRBIST_ENSURES(lo < hi);
    return {lo, hi};
}

} // namespace sdrbist::calib
