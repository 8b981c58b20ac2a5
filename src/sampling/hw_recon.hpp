/// \file hw_recon.hpp
/// \brief Hardware-mapped PNBS reconstructor — the paper's §VI future work
///        ("efficient mapping to hardware of our nonuniform sampler").
///
/// The product form of the Kohlenberg kernel factors each term into
///   s0(τ) = -sin(a0·τ - φ)·[c0·sinc(f0·τ)] / sin φ
/// where the bracketed *envelope* varies no faster than the channel rate B,
/// while the sine oscillates near the carrier.  Because a0·T = π·k, the
/// sine argument shifts by an integer multiple of π from tap to tap:
///   sin(a0·(τ - jT) - φ) = (-1)^{k·j} · sin(a0·τ - φ).
/// A hardware datapath therefore needs only
///   * four NCO sine evaluations per output sample (s0/s1 × even/odd), and
///   * four dot products between the sample records and *slow* envelope
///     tables, stored on a fractional-delay grid with quantised
///     coefficients.
/// This class models exactly that datapath (table ROM + NCO + MACs) so the
/// wordlength / grid-density trade-offs can be measured before an RTL
/// implementation.
///
/// The same factorisation runs in the BIST pipeline in floating point:
/// `pnbs_reconstructor::envelope` keeps the per-term envelope sums apart
/// and replaces each NCO sine by its complex rotation, so the complex
/// envelope is evaluated only at envelope-rate instants, with no passband
/// grid and no downconversion FIR at the passband rate.
#pragma once

#include <cstddef>
#include <vector>

#include "sampling/pnbs.hpp"

namespace sdrbist::sampling {

/// Hardware-mapping parameters.
struct hw_recon_options {
    std::size_t taps = 61;        ///< reconstruction window (odd)
    double kaiser_beta = 8.0;     ///< window for kernel truncation
    std::size_t phase_steps = 64; ///< fractional-delay grid points per T
    int coeff_bits = 16;          ///< envelope-table word length
                                  ///< (0 = unquantised doubles)
    bool interpolate_phases = true; ///< linear blend between grid points
                                    ///< (two ROM reads per MAC in hardware)
};

/// Table-driven reconstructor with the same interface as the reference
/// pnbs_reconstructor.
class hw_pnbs_reconstructor {
public:
    hw_pnbs_reconstructor(std::vector<double> even, std::vector<double> odd,
                          double period, double t_start,
                          const band_spec& band, double delay_hypothesis,
                          const hw_recon_options& opt = {});

    /// Reconstructed value at absolute time t.
    [[nodiscard]] double value(double t) const;

    /// Batch evaluation.
    [[nodiscard]] std::vector<double>
    values(const std::vector<double>& t) const;

    [[nodiscard]] double valid_begin() const;
    [[nodiscard]] double valid_end() const;

    /// Envelope-table ROM footprint in bytes for the configured wordlength
    /// (hardware costing; doubles count as 8 bytes).
    [[nodiscard]] std::size_t rom_bytes() const;

    [[nodiscard]] const hw_recon_options& options() const { return opt_; }

private:
    std::vector<double> even_;
    std::vector<double> odd_;
    double period_;
    double t_start_;
    band_spec band_;
    double delay_;
    hw_recon_options opt_;

    // Carrier (NCO) parameters.
    double a0_ = 0.0, phi_ = 0.0; // s0 term
    double a1_ = 0.0, psi_ = 0.0; // s1 term
    bool s0_vanishes_ = false;

    // Envelope tables [phase][tap]: even-stream s0/s1, odd-stream s0/s1.
    // Stored already scaled back from the quantisation grid.
    std::vector<std::vector<double>> env0_even_, env1_even_;
    std::vector<std::vector<double>> env0_odd_, env1_odd_;

    void build_tables();
    [[nodiscard]] double dot(const std::vector<std::vector<double>>& table,
                             const std::vector<double>& samples, long n0,
                             double frac) const;
};

} // namespace sdrbist::sampling
