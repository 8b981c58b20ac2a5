/// \file dual_rate.hpp
/// \brief The dual-rate reconstruction-consistency cost function of the
///        paper (eqs. (7)–(9)): the reference-free metric whose unique
///        minimum over D̂ in ]0, m[ sits at the true time-skew D.
///
/// Two captures of the *same repeatable stimulus* are taken: one at channel
/// rate B (period T) and one at B1 = B/2 (period T1).  For a hypothesis D̂
/// both are PNBS-reconstructed at N probe instants; the mean-square
/// disagreement is the cost.  At D̂ = D both reconstructions equal f(t) and
/// agree; anywhere else they distort differently (different k, different
/// kernels) and disagree.
///
/// `dual_rate_cost` evaluates the cost factored by D̂.  In the kernel's
/// product form (sampling/pnbs.hpp) the even stream's term m at probe t is
///   −sin(π·k_m·frac − φ_m)·g_m·E_m(t),
///   E_m(t) = Σ_j e[c + j]·(−1)^{k_m·j}·h_m(frac − j),
/// with g_m = c_m / sin φ_m, φ_m = π·k_m·B·D̂ and h_m the windowed sinc
/// that sampling::pnbs_tap_tables tabulates: the sums E_m do not depend on
/// D̂, so they are read from the tables once per capture and probe when the
/// object is built.  Each evaluation derives the per-hypothesis scalars
/// (g_m, φ_m, D̂/T) once, scales E_m by one NCO factor per probe and term,
/// and needs only the odd stream's two term sums, at the one phase
/// frac − D̂/T: the cubic blend of four table rows.
///
/// An LMS run evaluates ~40 hypotheses over the same probes, but each
/// probe's odd reads visit only ~16 distinct rows.  So the cost blends
/// row sums instead of rows: the first time any probe needs a row offset
/// o (its row at phase frac plus 3, minus the blend's first row), one
/// slab of Σ_j odd[c + j]·cells[row][m][j] at that offset is filled for
/// every probe and term through the dispatched `dot`, and each evaluation
/// weights four slab entries per probe and term.  A sum depends only on
/// (probe, term, row), so the cost does not depend on the order in which
/// hypotheses are evaluated; the slabs a calibration fills take ≤ 75 KB
/// per capture on the benchmark's fault grid (median 35 KB).  The lazily
/// filled slabs make a cost object unsafe to share between threads: use
/// one per thread.
///
/// The blend of sums reassociates `pnbs_reconstructor::value`'s blend of
/// rows, so the cost agrees with the per-evaluation reconstruction to
/// ~1e-14 relative (tested at 1e-12).  Against the exact per-tap
/// evaluation, the test yardstick `testing::skew_cost_reference`
/// (tests/support/skew_cost_yardstick.hpp), it is within 1e-9 relative
/// over D̂ in [0.005·m, 0.995·m] on the catalogue presets' calibration
/// captures.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "adc/tiadc.hpp"
#include "core/random.hpp"
#include "sampling/pnbs.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

namespace sdrbist::calib {

/// The pair of captures the estimator works on.
struct dual_rate_capture {
    adc::nonuniform_capture fast; ///< at rate B
    adc::nonuniform_capture slow; ///< at rate B1 < B
    sampling::band_spec band_fast; ///< band assumed for the fast capture
    sampling::band_spec band_slow; ///< band assumed for the slow capture
                                   ///< (narrower: B1 must cover the signal)
};

/// Paper eq. (9): dual-rate identifiability conditions
///   k⁺·B != k1·B1   and   k⁺·B != k1⁺·B1
/// (k from the fast band/rate, k1 from the slow ones; each capture's rate
/// is the reciprocal of its band's width).
bool dual_rate_conditions_ok(const sampling::band_spec& band_fast,
                             const sampling::band_spec& band_slow);
bool dual_rate_conditions_ok(const dual_rate_capture& capture);

/// Paper §IV-A: m = min{ 1/(k⁺·B), 1/(k1⁺·B1) } — the upper end of the
/// delay search interval ]0, m[ on which the cost has a unique minimum.
double max_search_delay(const sampling::band_spec& band_fast,
                        const sampling::band_spec& band_slow);
double max_search_delay(const dual_rate_capture& capture);

/// A reconstruction-band placement satisfying the eq. (9) identifiability
/// conditions for a signal of `occupied_bw` centred on the carrier.
struct band_plan {
    sampling::band_spec fast;  ///< band assumed by the rate-B capture
    sampling::band_spec slow;  ///< band assumed by the rate-B1 capture
    double fast_offset_hz = 0.0; ///< fast-band centre minus carrier
    double slow_offset_hz = 0.0; ///< slow-band centre minus carrier
};

/// Numerical identifiability check of a band plan: noise-free dual-rate
/// captures of a synthetic multitone spanning the occupied band are
/// reconstructed with a deliberately wrong delay hypothesis; the returned
/// value is that wrong-delay cost normalised by the signal power.
///
/// Values well above ~1e-2 mean a sharp cost minimum (paper Fig. 5 shape);
/// values near zero reveal a *blind* plan — e.g. when the signal sits at
/// k·B/2 and the skew-error image folds back onto the signal for both
/// rates, a degeneracy the algebraic eq. (9) does not exclude.
double dual_rate_discrimination(const band_plan& plan, double carrier_hz,
                                double occupied_bw);

/// The most a blind plan's dual_rate_discrimination reads: the window
/// ripple and rounding left when the skew-error image cancels between the
/// rates (≤ 5.6e-7 over a 150 MHz–3 GHz carrier sweep, where every other
/// admissible plan reads ≥ 3.3e-5).
inline constexpr double blind_discrimination = 1e-6;

/// Whether `plan` is blind by construction for the multitone
/// dual_rate_discrimination probes it with: every tone, with a guard of the
/// fast kernel's resolution B/taps, lies in one kernel term's sub-band of
/// each rate, and the two terms fold about the same frequency
/// (k_m·B = k1_m'·B1), so a delay error leaves the same image in both
/// reconstructions.  The derivation is in bist::choose_bist_band_plan.
/// Precondition: plan admissible (eq. (9)).
bool plan_is_blind(const band_plan& plan, double carrier_hz,
                   double occupied_bw);

/// The admissible plans for one carrier, in search order: the fast band
/// centred on the carrier, then shifted by ±2.5 %, ±5 %, ±7.5 %, ±10 % of
/// B while the widest graded signal keeps a skirt guard inside it; for
/// each, the slow band shifted as little as eq. (9) and the calibration
/// signal allow (shifts with no admissible slow band are left out).
/// `occupied_bw` and `fast_occupied_bw` (0 = same) as choose_band_plan.
std::vector<band_plan> candidate_band_plans(double carrier_hz,
                                            double fast_bandwidth,
                                            double slow_bandwidth,
                                            double occupied_bw,
                                            double fast_occupied_bw = 0.0);

/// Outcome of a band-plan search (search_band_plans).
struct band_plan_choice {
    band_plan plan;
    double carrier_hz = 0.0;
    double discrimination = -1.0; ///< the plan's dual_rate_discrimination
    std::size_t evaluated = 0;    ///< discriminations the search computed
};

/// The band-plan search over `carriers` (tried in order), each carrier's
/// candidate_band_plans in order: the first plan whose
/// dual_rate_discrimination reaches `min_discrimination` wins; if none
/// does, the most discriminating plan, the first in search order on ties.
/// While `min_discrimination` exceeds blind_discrimination, a plan that
/// plan_is_blind cannot win, so its discrimination is computed only when
/// no plan passes: the choice is the same as evaluating every plan in
/// order, with fewer evaluations.  Throws contract_violation when a
/// carrier the search reaches has no admissible plan.
band_plan_choice search_band_plans(std::span<const double> carriers,
                                   double fast_bandwidth,
                                   double slow_bandwidth, double occupied_bw,
                                   double fast_occupied_bw,
                                   double min_discrimination);

/// Plan both band placements for one carrier: search_band_plans over
/// {carrier_hz}.  Prefers centred bands; shifts the slow band first, and
/// nudges the fast band only for degenerate carriers (carrier an exact
/// multiple of B1, where no slow shift can satisfy eq. (9)).  Among
/// admissible plans the first with dual_rate_discrimination above
/// `min_discrimination` wins; if none qualifies the most discriminating
/// plan is returned.  Blind plans (plan_is_blind) are measured only when
/// no plan qualifies.  `discrimination`, when non-null, receives the
/// returned plan's dual_rate_discrimination (so callers deciding whether
/// to move the BIST carrier need not measure it again).
/// `occupied_bw` is the signal width the *slow* band must keep (the
/// calibration stimulus); `fast_occupied_bw` (0 = same) the width the fast
/// band must keep (the widest waveform to be graded).
/// Throws contract_violation when the occupied bandwidth cannot fit.
band_plan choose_band_plan(double carrier_hz, double fast_bandwidth,
                           double slow_bandwidth, double occupied_bw,
                           double fast_occupied_bw = 0.0,
                           double min_discrimination = 1e-2,
                           double* discrimination = nullptr);

/// The paper's cost (eqs. (7)/(8)) as a function of the delay hypothesis:
/// the mean squared difference between the rate-B and rate-B1
/// reconstructions under D̂ at the given probe times, factored by D̂ (see
/// the file comment).  Built once per calibration; each call evaluates one
/// hypothesis.
class dual_rate_cost {
public:
    /// Preconditions: probes non-empty, each with its whole tap window
    /// inside both captures' records (every probe in valid_probe_interval
    /// qualifies); records and periods as pnbs_reconstructor requires.
    dual_rate_cost(const dual_rate_capture& capture,
                   std::span<const double> probe_times,
                   const sampling::pnbs_options& opt = {});

    /// Cost at hypothesis D̂.  Precondition: D̂ stable for both bands
    /// (kohlenberg_kernel::delay_is_stable).  Fills the odd-stream row
    /// sums it needs that no earlier call filled (see the file comment).
    [[nodiscard]] double operator()(double delay_hypothesis) const;

    /// SIMD kernel backend running the table reads (captured from
    /// simd::kernel_backend::select() at construction).
    [[nodiscard]] const simd::kernel_ops& backend() const { return *ops_; }

private:
    /// One probe on one capture: the first tap's record index, the offset
    /// frac from the nearest even sample, the sincos of the NCO phases
    /// π·k_m·frac, the even sums E_m, and `base`, the first blended row at
    /// phase frac plus the blend's reach of 3.  Every odd read (phase
    /// frac − D̂/T, D̂ > 0) blends rows base − o … base − o + 3 with o ≥ 3.
    struct frame {
        std::size_t first = 0;
        double frac = 0.0;
        double sin_k = 0.0, cos_k = 1.0, sin_p = 0.0, cos_p = 1.0;
        double e0 = 0.0, e1 = 0.0;
        std::size_t base = 0;
    };

    /// One capture: its band, period, D̂-free tables, odd record,
    /// per-probe frames and the odd-stream row sums filled so far:
    /// slabs[o][m·probes + i] = Σ_j odd[first_i + j]·cells[base_i − o][m][j]
    /// (empty until a probe first needs offset o; NaN where that row is
    /// outside the table, which no read of probe i reaches).
    struct stream {
        sampling::band_spec band;
        double period;
        sampling::pnbs_tap_tables tables;
        std::vector<double> odd;
        std::vector<frame> frames;
        mutable std::vector<std::vector<double>> slabs;
    };

    /// The D̂-dependent scalars of one capture's kernel.
    struct hypothesis {
        double d_frac = 0.0; ///< D̂ / T
        double g0 = 0.0, g1 = 0.0;
        double cos_phi = 1.0, sin_phi = 0.0, cos_psi = 1.0, sin_psi = 0.0;
    };

    stream make_stream(const adc::nonuniform_capture& rec,
                       const sampling::band_spec& band,
                       std::span<const double> probe_times,
                       const sampling::pnbs_options& opt) const;

    static hypothesis hypothesis_of(const stream& s, double d_hat);

    /// The odd-stream row sums of every probe at row offset o, filled on
    /// first use.
    const double* slab(const stream& s, std::size_t o) const;

    /// The capture's reconstruction at probe i under hypothesis h.
    double probe_value(const stream& s, const hypothesis& h,
                       std::size_t i) const;

    const simd::kernel_ops* ops_;
    stream fast_;
    stream slow_;
};

/// N probe times drawn uniformly from [t_lo, t_hi] (paper: N = 300 random
/// values in [470 ns, 1700 ns]).
std::vector<double> make_probe_times(rng& gen, std::size_t n, double t_lo,
                                     double t_hi);

/// Largest probe interval valid for both captures with the given taps.
/// Returns {t_lo, t_hi}.
std::pair<double, double>
valid_probe_interval(const dual_rate_capture& capture,
                     const sampling::pnbs_options& opt = {});

} // namespace sdrbist::calib
