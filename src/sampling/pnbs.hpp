/// \file pnbs.hpp
/// \brief Second-order Periodically Nonuniform Bandpass Sampling (PNBS):
///        the Kohlenberg interpolation kernel (paper eqs. (1)–(3)) and the
///        truncated, Kaiser-windowed reconstructor (eq. (6)).
#pragma once

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "dsp/window.hpp"
#include "sampling/band.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

namespace sdrbist::sampling {

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
    [[nodiscard]] long k() const { return k_; }

    /// k⁺ = k + 1.
    [[nodiscard]] long k_plus() const { return k_ + 1; }

    [[nodiscard]] double delay() const { return delay_; }
    [[nodiscard]] const band_spec& band() const { return band_; }

    // Product-form coefficients, exposed so reconstructors can fuse the
    // kernel evaluation (per-tap phase tables instead of per-tap
    // transcendentals).
    [[nodiscard]] double f0() const { return f0_; }  ///< s0 sinc frequency
    [[nodiscard]] double f1() const { return f1_; }  ///< s1 sinc frequency
    [[nodiscard]] double c0() const { return c0_; }  ///< s0 envelope at t=0
    [[nodiscard]] double c1() const { return c1_; }  ///< s1 envelope at t=0
    [[nodiscard]] double phi() const { return phi_; }       ///< k·π·B·D
    [[nodiscard]] double psi() const { return psi_; }       ///< k⁺·π·B·D
    [[nodiscard]] double sin_phi() const { return sin_phi_; }
    [[nodiscard]] double sin_psi() const { return sin_psi_; }
    [[nodiscard]] bool s0_vanishes() const { return s0_vanishes_; }

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
    long k_;
    // Precomputed coefficients of the product form.
    double a0_, f0_, c0_, sin_phi_, phi_;
    double a1_, f1_, c1_, sin_psi_, psi_;
    bool s0_vanishes_;
};

/// Reconstruction options for the truncated kernel (paper: 61 taps, Kaiser).
struct pnbs_options {
    std::size_t taps = 61;    ///< number of sample pairs in the window (odd)
    double kaiser_beta = 8.0; ///< window shape for kernel truncation
};

/// The D̂-free half of the fused product form (see pnbs_reconstructor) for
/// one band, period T = 1/B and tap window: the kernel's k, f0 and f1, the
/// signed per-tap phase tables and the window LUT, and the stage-1 fill of
/// the tap coefficients built on them.  pnbs_reconstructor and
/// calib::dual_rate_cost both fill through it, so the weights the kernel
/// terms get and the zero-crossing patch are decided here only.
struct pnbs_tap_tables {
    /// Preconditions: band valid; period > 0; taps odd and ≥ 5.
    pnbs_tap_tables(const band_spec& band, double period,
                    const pnbs_options& opt);

    /// The D̂-free frame of one evaluation point: its offset from the
    /// nearest even sample, its tap range (count 0 when empty) and the
    /// sincos of the sinc numerator phases del_m·frac at j = 0.
    struct point {
        double frac = 0.0;
        long j_lo = 0, j_hi = -1;
        std::size_t count = 0;
        double sin_a0 = 0.0, cos_a0 = 1.0, sin_a1 = 0.0, cos_a1 = 1.0;
    };

    /// The odd stream's D̂-dependent constants: D̂, D̂/T and the sincos of
    /// the sinc phase shifts π·f_m·D̂.
    struct shift {
        double d_hat = 0.0, d_frac = 0.0;
        double sin_eps0 = 0.0, cos_eps0 = 1.0, sin_eps1 = 0.0, cos_eps1 = 1.0;
    };

    /// Frame of a point at offset `frac` with taps j_lo..j_hi (the phases
    /// are left unset when j_lo > j_hi).
    [[nodiscard]] point at(double frac, long j_lo, long j_hi) const;

    /// Odd-stream constants of hypothesis D̂.
    [[nodiscard]] shift delay(double d_hat) const;

    /// Stage 1 for one point: ce[i] / co[i] = the even / odd coefficients
    /// of tap j_lo + i with NCO weights s0e, s1e (even) and s0o, s1o (odd)
    /// on the two kernel terms, i.e.
    ///   w(u)·(s0·(-1)^{k·j}·sinc(f0·τ) + s1·(-1)^{k⁺·j}·sinc(f1·τ))
    /// at the stream's kernel argument τ, through the dispatched pnbs_fill,
    /// the zero crossing (at most one tap per stream) patched with the
    /// library sinc.  p.count taps each.
    void fill(const simd::kernel_ops& ops, const point& p, const shift& d,
              double s0e, double s1e, double s0o, double s1o, double* ce,
              double* co) const;

    /// The even half of fill() alone (pnbs_even_fill), bit for bit.
    void fill_even(const simd::kernel_ops& ops, const point& p, double s0e,
                   double s1e, double* ce) const;

    /// The odd half of fill() alone (pnbs_odd_fill), bit for bit.
    void fill_odd(const simd::kernel_ops& ops, const point& p,
                  const shift& d, double s0o, double s1o, double* co) const;

    double period;
    long k;            ///< ceil(2·f_lo/B), as kohlenberg_kernel::k()
    bool s0_vanishes;  ///< as kohlenberg_kernel::s0_vanishes()
    double f0, f1;     ///< sinc frequencies, as kohlenberg_kernel's
    double del0, del1; ///< π·f·T, the per-tap sinc phase steps
    double inv_del0;   ///< 1 / del0 (0 when s0 vanishes)
    double inv_del1;   ///< 1 / del1
    std::size_t taps;  ///< window length (odd)
    long half;         ///< taps / 2
    double inv_span;   ///< 1 / (half + 1), window normalisation
    dsp::kaiser_lut window; ///< shared continuous Kaiser window LUT
    /// Signed per-tap phase tables, taps entries each, indexed by j + half:
    /// [(-1)^{k·j}·cos(del0·j) | (-1)^{k·j}·sin(del0·j) |
    ///  (-1)^{k⁺·j}·cos(del1·j) | (-1)^{k⁺·j}·sin(del1·j)].
    std::vector<double> tabs;

};

/// Practical PNBS reconstructor (paper eq. (6)): evaluates
///   f(t) ≈ Σ_{n in window} [ f(nT)·s(t-nT) + f(nT+D̂)·s(nT+D̂-t) ]·w(·)
/// from finite records of the two sample streams.
///
/// The default evaluation path fuses s0 + s1 into per-call factors and
/// per-tap tables.  The tap index j enters the kernel's NCO sin()
/// arguments only through integer multiples of π·k / π·k⁺ (pure sign
/// flips), and the sinc numerators' phases π·f·T·(frac - j) split by angle
/// addition into a per-call part and a per-tap part.  The constructor
/// therefore builds four signed tables (-1)^{k·j}·cos/sin(π·f0·T·j) and
/// (-1)^{k⁺·j}·cos/sin(π·f1·T·j), which depend on band, T and taps only.
/// Each evaluation makes four sincos calls (two NCO phases, two sinc
/// phases; the odd stream's follow through cos/sin(π·f·D̂) from the
/// constructor), then pnbs_tap_tables::fill computes every tap
/// independently on the dispatched `pnbs_fill` kernel: four multiply-adds
/// against the tables, one divide and one window LUT read per stream.  The
/// taps where a stream's argument crosses zero are patched with the
/// library sinc, and the accumulation runs as the dispatched `dot2` over
/// the even/odd records.
/// The direct per-tap transcendental evaluation it is bounded against is
/// the test yardstick `testing::pnbs_yardstick`
/// (tests/support/pnbs_yardstick.hpp); `uniform()` calls `value()` per
/// point and is therefore bit-identical to it.  calib::dual_rate_cost
/// reuses the same tables and fill for the dual-rate cost, factored by D̂.
///
/// `envelope()` evaluates the complex envelope about a mix frequency
/// directly from the same product form (paper §VI).  Per term m (s0 with
/// k, φ; s1 with k⁺, ψ) it runs the fill once with the other term's
/// weights zeroed, patches the zero crossings and dots both records, giving
/// E_m / O_m: the even / odd records against term m's signed, windowed
/// sinc coefficients.  With g_m = c_m / sin φ_m,
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
    /// \param delay_hypothesis D̂ used for reconstruction
    /// \param opt      taps / window
    pnbs_reconstructor(std::vector<double> even, std::vector<double> odd,
                       double period, double t_start, const band_spec& band,
                       double delay_hypothesis, const pnbs_options& opt = {});

    /// Reconstructed value at absolute time t (fused fast path).
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

    /// SIMD kernel backend running the coefficient fill and the stage-2
    /// dot products (captured from simd::kernel_backend::select() at
    /// construction).
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

    // Fused fast-path constants (derived from the kernel in the ctor).
    pnbs_tap_tables::shift shift_; ///< odd-stream constants of D̂
    double g0_ = 0.0;        ///< c0 / sin φ (0 when s0 vanishes)
    double g1_ = 0.0;        ///< c1 / sin ψ
    double cos_phi_ = 0.0;   ///< cos φ
    double cos_psi_ = 0.0;   ///< cos ψ

    /// One evaluation instant on the records: the nearest even sample and
    /// the tap frame around it, clamped to the records (count 0 when no
    /// tap lands inside).
    struct point_frame {
        long centre = 0;
        pnbs_tap_tables::point tap;
    };
    [[nodiscard]] point_frame locate(double t) const;
};

} // namespace sdrbist::sampling
