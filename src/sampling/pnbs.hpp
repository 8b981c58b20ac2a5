/// \file pnbs.hpp
/// \brief Second-order Periodically Nonuniform Bandpass Sampling (PNBS):
///        the Kohlenberg interpolation kernel (paper eqs. (1)–(3)) and the
///        truncated, Kaiser-windowed reconstructor (eq. (6)), evaluated
///        through per-term polyphase tables of the windowed kernel.
#pragma once

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "dsp/phase_blend.hpp"
#include "sampling/band.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

namespace sdrbist::sampling {

/// The D̂-free coefficients of the Kohlenberg kernel of one band (paper
/// eq. (2)), derived here only: k = ceil(2·f_lo/B), the sinc frequencies
/// f0 = k·B - 2·f_lo and f1 = B - f0 of the two terms, their t = 0
/// envelopes c = f/B, and whether s0 vanishes (2·f_lo/B an integer).
struct kernel_terms {
    /// Precondition: band valid.
    explicit kernel_terms(const band_spec& band);

    long k;           ///< ceil(2·f_lo/B)  (paper eq. (2d)); k⁺ = k + 1
    double f0, f1;    ///< sinc frequencies of s0 and s1
    double c0, c1;    ///< f0/B and f1/B
    bool s0_vanishes; ///< |c0| < 1e-12: s0 is identically zero
};

/// Kohlenberg second-order interpolation kernel s(t) = s0(t) + s1(t) for a
/// band [f_lo, f_hi] sampled as two uniform streams f(nT), f(nT+D) with
/// T = 1/B.
///
/// Implementation note: the paper's eq. (2) quotient form has a removable
/// singularity at t = 0; we evaluate the algebraically equivalent
/// product form
///   s0(t) = -sin(π·k·B·t - φ) · (k - 2·f_lo/B) · sinc((k·B-2·f_lo)·t) / sin φ
/// (and analogously s1 with k⁺, ψ), which is stable for all t.
/// φ = k·π·B·D, ψ = k⁺·π·B·D.
class kohlenberg_kernel {
public:
    /// \param band  signal band; T is implied as 1/bandwidth
    /// \param delay the inter-stream delay D (or its estimate D̂)
    /// Preconditions: band valid; D stable (not at a forbidden value —
    /// check with delay_is_stable() first; construction enforces it).
    kohlenberg_kernel(const band_spec& band, double delay);

    /// Kernel value s(t).
    [[nodiscard]] double s(double t) const { return s0(t) + s1(t); }

    /// First kernel term (vanishes identically when 2·f_lo/B is integer).
    [[nodiscard]] double s0(double t) const;

    /// Second kernel term.
    [[nodiscard]] double s1(double t) const;

    /// k = ceil(2·f_lo/B)  (paper eq. (2d)).
    [[nodiscard]] long k() const { return terms_.k; }

    /// k⁺ = k + 1.
    [[nodiscard]] long k_plus() const { return terms_.k + 1; }

    [[nodiscard]] double delay() const { return delay_; }
    [[nodiscard]] const band_spec& band() const { return band_; }

    // Product-form coefficients, exposed so reconstructors can fuse the
    // kernel evaluation (per-term tables instead of per-tap
    // transcendentals).
    [[nodiscard]] double f0() const { return terms_.f0; } ///< s0 sinc frequency
    [[nodiscard]] double f1() const { return terms_.f1; } ///< s1 sinc frequency
    [[nodiscard]] double c0() const { return terms_.c0; } ///< s0 envelope at t=0
    [[nodiscard]] double c1() const { return terms_.c1; } ///< s1 envelope at t=0
    [[nodiscard]] double phi() const { return phi_; }       ///< k·π·B·D
    [[nodiscard]] double psi() const { return psi_; }       ///< k⁺·π·B·D
    [[nodiscard]] double sin_phi() const { return sin_phi_; }
    [[nodiscard]] double sin_psi() const { return sin_psi_; }
    [[nodiscard]] bool s0_vanishes() const { return terms_.s0_vanishes; }

    /// Stability test of a candidate delay (paper eq. (3)): D must not be a
    /// multiple of T/k or T/k⁺ (within a relative tolerance of T).
    static bool delay_is_stable(const band_spec& band, double delay,
                                double rel_tol = 1e-6);

    /// All forbidden delays n·T/k and n·T/k⁺ in (0, max_delay].
    static std::vector<double> forbidden_delays(const band_spec& band,
                                                double max_delay);

    /// Magnitude-optimal delay |D| = 1/(4·fc) (paper §II-B1, from [12]).
    static double optimal_delay(const band_spec& band);

    /// First-order reconstruction error bound (paper eq. (4)):
    /// ΔF ≈ π·B·(k+1)·ΔD for a delay-estimate error ΔD.
    static double error_bound(const band_spec& band, double delta_d);

    /// Inverse of error_bound: the |ΔD| tolerated for a relative spectrum
    /// error ΔF (paper example eq. (5): 1 % at 1 GHz/80 MHz -> ~2 ps).
    static double required_delay_accuracy(const band_spec& band,
                                          double delta_f);

private:
    band_spec band_;
    double delay_;
    kernel_terms terms_;
    // Precomputed coefficients of the product form.
    double a0_, sin_phi_, phi_;
    double a1_, sin_psi_, psi_;
};

/// Reconstruction options for the truncated kernel (paper: 61 taps, Kaiser).
struct pnbs_options {
    std::size_t taps = 61;    ///< number of sample pairs in the window (odd)
    double kaiser_beta = 8.0; ///< window shape for kernel truncation
};

/// The D̂-free half of the truncated kernel for one band, period T = 1/B
/// and tap window, tabulated.  Tap j of kernel term m (s0 with k, s1 with
/// k⁺) carries the coefficient (−1)^{k_m·j}·s_m·h_m(x) with a per-point
/// NCO weight s_m and
///   h_m(x) = w(x/(taps/2 + 1))·sinc(γ_m·x),  γ_m = f_m·T,
/// w the exact continuous Kaiser window.  The even stream reads it at
/// x = φ − j with φ = frac, the instant's offset from its nearest even
/// sample, and the odd stream at φ = frac − D̂/T over the same taps (h_m is
/// even).  One table holds, for each term, the signed cells
/// (−1)^{k_m·j}·h_m(φ − j) (the sign depends on the column only, so it
/// folds into the cells and the records are read as they are) over the
/// tap offsets j and `phase_steps` rows
/// per unit of φ on [−1, 0.5] (plus the cubic blend's pad rows): with
/// frac in [−0.5, 0.5] and 0 < D̂/T ≤ 1/2 (the paper's search interval
/// ]0, m[ has m < T/k⁺ ≤ T/2) that range covers every even and odd read.
/// A read blends four rows with `dsp::cubic_phase_blend` through the
/// dispatched `blend_dot`; h_m is analytic through x = 0, so no tap needs
/// a patch.
///
/// Cells are (window grid) × (sinc by angle addition): the grid of
/// w(x/span)/(π·x) (w where x = 0) depends only on (taps, β) and is built
/// once per process; a band then costs one sincos per row and per column
/// (~50 µs at 61 taps).  Pad cells beyond the window support hold the
/// window's J0 continuation (`dsp::continued_kaiser`), so the blend keeps
/// its order at the ends of the range.  The band tables themselves are not
/// memoised: band keys are unbounded across carriers, and each table holds
/// ~0.4 MB at 61 taps.
///
/// Accuracy: the cubic blend's error falls as phase_steps^-4 and grows
/// with γ_m^4.  At 256 rows per unit a read is within 5e-10 of the exact
/// kernel relative to its Σ|terms| (measured ≤ 1.5e-10 on the catalogue's
/// band plans, worst for γ_m near 1), so a reconstruction stays within
/// 1e-9 of the exact per-tap evaluation (`testing::pnbs_yardstick`)
/// relative to the signal RMS.  256 is the smallest power of two that
/// does: at 128 the record-edge probes of PnbsFastPath measure 1.5e-9.
struct pnbs_tap_tables {
    /// Phase rows per unit of φ.
    static constexpr std::size_t phase_steps = 256;

    /// Preconditions: band valid; period > 0; taps odd and ≥ 5.
    pnbs_tap_tables(const band_spec& band, double period,
                    const pnbs_options& opt);

    /// Both terms' sums over `count` taps from offset j_lo.
    struct sums {
        double h0 = 0.0; ///< Σ x[i]·(−1)^{k·j}·h_0(φ − j) (0 if s0 vanishes)
        double h1 = 0.0; ///< Σ x[i]·(−1)^{k⁺·j}·h_1(φ − j)
    };

    /// The record x (x[i] at tap j = j_lo + i) against both terms' table
    /// rows at phase φ.  Preconditions: φ in [−1, 0.5];
    /// −half ≤ j_lo and j_lo + count ≤ half + 1.
    [[nodiscard]] sums read(const simd::kernel_ops& ops, const double* x,
                            double phi, long j_lo, std::size_t count) const;

    /// The four rows `read` blends at phase φ and their weights; the first
    /// row never decreases as φ grows.  Precondition: φ in [−1, 0.5].
    [[nodiscard]] dsp::phase_blend blend_at(double phi) const;

    /// Row r's cells of term m (taps of them, tap j at index j + half).
    [[nodiscard]] const double* row(std::size_t r, int m) const {
        return cells.data() + r * 2 * taps + (m == 0 ? 0 : taps);
    }

    /// Rows in the table, the blend's pad rows included.
    [[nodiscard]] std::size_t rows() const { return cells.size() / (2 * taps); }

    kernel_terms terms;
    std::size_t taps; ///< window length (odd)
    long half;        ///< taps / 2
    /// Row-major cells: row r (φ = −1 + (r − 1)/phase_steps) holds the
    /// term-0 cells then the term-1 cells, taps each, indexed by j + half.
    std::vector<double> cells;
};

/// Practical PNBS reconstructor (paper eq. (6)): evaluates
///   f(t) ≈ Σ_{n in window} [ f(nT)·s(t-nT) + f(nT+D̂)·s(nT+D̂-t) ]·w(·)
/// from finite records of the two sample streams.
///
/// The tap index j enters the kernel's NCO sin() arguments only through
/// integer multiples of π·k / π·k⁺ (pure sign flips), so each stream's sum
/// splits into per-term sums against the signed, windowed sincs that
/// pnbs_tap_tables tabulates, scaled by per-point NCO weights.  Each
/// evaluation reads four blends (two terms × two streams) and makes two
/// sincos calls for the NCO phases.  The direct per-tap transcendental
/// evaluation it is bounded against is the test yardstick
/// `testing::pnbs_yardstick` (tests/support/pnbs_yardstick.hpp);
/// `uniform()` calls `value()` per point and is therefore bit-identical to
/// it.  calib::dual_rate_cost reads the same tables for the dual-rate
/// cost, factored by D̂.
///
/// `envelope()` evaluates the complex envelope about a mix frequency
/// directly from the same product form (paper §VI).  With E_m / O_m the
/// even / odd records against term m's table sums (s0 with k, φ; s1 with
/// k⁺, ψ) and g_m = c_m / sin φ_m,
///   e(t) = j·Σ_m g_m·e^{j(π·k_m·frac - 2π·f_mix·t)}·(E_m·e^{-jφ_m} - O_m),
/// and Re{e(t)·e^{j2π·f_mix·t}} = value(t): the NCO sines are the real
/// parts of the rotations, so mixing needs no passband grid and leaves no
/// image at -2·f_mix.  `uniform()` plus `dsp::digital_downconvert` stays
/// as the yardstick the envelope is bounded against.
class pnbs_reconstructor {
public:
    /// \param even     f(t_start + n·T) record
    /// \param odd      f(t_start + n·T + D) record
    /// \param period   T = 1/B
    /// \param t_start  absolute time of even[0]
    /// \param band     assumed signal band (defines the kernel)
    /// \param delay_hypothesis D̂ used for reconstruction, at most T/2
    /// \param opt      taps / window
    pnbs_reconstructor(std::vector<double> even, std::vector<double> odd,
                       double period, double t_start, const band_spec& band,
                       double delay_hypothesis, const pnbs_options& opt = {});

    /// Reconstructed value at absolute time t.
    [[nodiscard]] double value(double t) const;

    /// Uniform-grid evaluation: n values at t0, t0+1/rate, ...
    /// Bit-identical to calling value(t0 + i/rate) per point.
    [[nodiscard]] std::vector<double> uniform(double t0, double rate,
                                              std::size_t n) const;

    /// Complex envelope about `f_mix` at n instants t0, t0+1/rate, ...
    /// (analytic signal times e^{-j2π·f_mix·t}, absolute-time phase):
    /// Re{envelope·e^{j2π·f_mix·t}} equals value(t) up to rounding.
    [[nodiscard]] std::vector<std::complex<double>>
    envelope(double t0, double rate, std::size_t n, double f_mix) const;

    /// Earliest/latest t with the full tap window inside the records.
    [[nodiscard]] double valid_begin() const;
    [[nodiscard]] double valid_end() const;

    /// {valid_begin(), valid_end()} of a reconstructor over records of
    /// `record_len` samples per stream starting at `t_start` with period
    /// `period` and `taps` taps; the span depends on nothing else, so
    /// callers that only need it construct no reconstructor.
    static std::pair<double, double> valid_span(std::size_t record_len,
                                                double period, double t_start,
                                                std::size_t taps);

    [[nodiscard]] const kohlenberg_kernel& kernel() const { return kernel_; }
    [[nodiscard]] double period() const { return period_; }

    /// SIMD kernel backend running the table reads (captured from
    /// simd::kernel_backend::select() at construction).
    [[nodiscard]] const simd::kernel_ops& backend() const { return *ops_; }

private:
    std::vector<double> even_;
    std::vector<double> odd_;
    double period_;
    double t_start_;
    kohlenberg_kernel kernel_;
    pnbs_options opt_;
    pnbs_tap_tables tables_;
    const simd::kernel_ops* ops_;

    // Per-call constants derived from the kernel in the ctor.
    double d_frac_ = 0.0;  ///< D̂ / T
    double g0_ = 0.0;      ///< c0 / sin φ (0 when s0 vanishes)
    double g1_ = 0.0;      ///< c1 / sin ψ
    double cos_phi_ = 0.0; ///< cos φ
    double cos_psi_ = 0.0; ///< cos ψ

    /// One evaluation instant on the records: the nearest even sample, the
    /// offset from it, and the tap range around it clamped to the records
    /// (count 0 when no tap lands inside).
    struct point_frame {
        long centre = 0;
        double frac = 0.0;
        long j_lo = 0;
        std::size_t count = 0;
    };
    [[nodiscard]] point_frame locate(double t) const;

    /// The even and odd records' term sums at p.
    [[nodiscard]] std::pair<pnbs_tap_tables::sums, pnbs_tap_tables::sums>
    read(const point_frame& p) const;
};

} // namespace sdrbist::sampling
