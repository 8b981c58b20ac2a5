/// \file interpolator.hpp
/// \brief Bandlimited (windowed-sinc) evaluation of a uniformly sampled
///        sequence at arbitrary time instants.
///
/// This is the bridge between discrete behavioural models and the
/// "continuous-time" RF waveform that the nonuniform sampler probes at
/// picosecond-grade instants: the complex envelope is stored at a modest
/// oversampled rate and evaluated exactly (to the interpolator's stopband
/// floor) at any t.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace sdrbist::simd {
struct kernel_ops;
}

namespace sdrbist::dsp {

/// Windowed-sinc interpolator over complex-envelope samples x[n] taken at
/// t = n / rate.
///
/// Evaluation uses `half_taps` samples on each side of t, weighted by
/// sinc(rate·t - n) and a continuous Kaiser window.  Out-of-range samples
/// are treated as zero; call `valid_begin()/valid_end()` for the time span
/// where no edge truncation occurs.
///
/// The hot path draws its coefficients from a polyphase LUT:
/// `phase_steps` rows of 2·half_taps windowed-sinc coefficients over the
/// fractional sample offset, blended with a cubic (4-row Lagrange)
/// interpolation so the error against the exact transcendental evaluation
/// stays below ~1e-12 at the default 1024 phases.  Row selection and blend
/// weights come from `dsp::cubic_phase_blend` (dsp/phase_blend.hpp), which
/// the EVM matched filter's SRRC table reads through too.  The LUT depends only on
/// (half_taps, beta, phase_steps), not on the samples or on T, so it is
/// built once per process for each exact parameter set and shared by every
/// interpolator constructed with it — the same build_lut() output a
/// private table would be, value for value.
/// The exact two-Bessel-series-per-tap evaluation it is bounded against is
/// the test yardstick `testing::interp_reference`
/// (tests/support/interp_yardstick.hpp).
class sinc_interpolator {
public:
    /// \param samples     uniform samples, x[n] at t = n/rate
    /// \param rate        sample rate in Hz (> 0)
    /// \param half_taps   one-sided kernel support in samples (>= 4)
    /// \param beta        Kaiser window beta (sidelobe control)
    /// \param phase_steps polyphase LUT rows per unit fractional offset
    ///                    (>= 64; accuracy improves as phase_steps^-4)
    sinc_interpolator(std::vector<std::complex<double>> samples, double rate,
                      std::size_t half_taps = 32, double beta = 10.0,
                      std::size_t phase_steps = 1024);

    /// Interpolated value at time t (seconds).  LUT fast path.
    [[nodiscard]] std::complex<double> at(double t) const {
        return eval(t * rate_);
    }

    /// Batch evaluation (bit-identical to per-point at()).
    [[nodiscard]] std::vector<std::complex<double>>
    at(const std::vector<double>& t) const;

    /// First instant free of edge truncation.
    [[nodiscard]] double valid_begin() const {
        return static_cast<double>(half_taps_) / rate_;
    }
    /// Last instant free of edge truncation.
    [[nodiscard]] double valid_end() const {
        return (static_cast<double>(samples_.size()) -
                static_cast<double>(half_taps_) - 1.0) /
               rate_;
    }

    [[nodiscard]] double rate() const { return rate_; }
    [[nodiscard]] std::size_t size() const { return samples_.size(); }
    [[nodiscard]] const std::vector<std::complex<double>>& samples() const {
        return samples_;
    }
    [[nodiscard]] std::size_t half_taps() const { return half_taps_; }

    /// SIMD kernel backend evaluating the tap loop (captured from
    /// simd::kernel_backend::select() at construction).
    [[nodiscard]] const simd::kernel_ops& backend() const { return *ops_; }

    /// The shared polyphase LUT: phase_steps + 3 rows of 2·half_taps
    /// coefficients, row r at fractional offset (r - 1)/phase_steps (one
    /// pad row below 0 and two above 1 for the cubic blend), row-major.
    [[nodiscard]] std::span<const double> lut() const { return *lut_; }

    /// A fresh (unshared) build of the LUT an interpolator with these
    /// parameters holds.
    static std::vector<double> build_lut(std::size_t half_taps, double beta,
                                         std::size_t phase_steps);

private:
    std::vector<std::complex<double>> samples_;
    double rate_;
    std::size_t half_taps_;
    std::size_t phase_steps_;
    const simd::kernel_ops* ops_;
    std::shared_ptr<const std::vector<double>> lut_; ///< see lut()

    [[nodiscard]] std::complex<double> eval(double pos) const;
};

} // namespace sdrbist::dsp
