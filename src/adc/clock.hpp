/// \file clock.hpp
/// \brief Sampling-clock edge generation with deterministic Gaussian jitter.
///
/// The paper's evaluation: "The clock generator that drives the sample-and-
/// hold circuit is affected by a gaussian distributed time-skew jitter of
/// 3 ps rms."  Edges are nominal (t0 + n·T) plus i.i.d. Gaussian jitter.
#pragma once

#include <cstdint>
#include <vector>

#include "core/random.hpp"

namespace sdrbist::adc {

/// Clock model parameters.
struct clock_config {
    double period_s = 0.0;     ///< nominal period T
    double offset_s = 0.0;     ///< static phase offset t0 (e.g. DCDE delay)
    double jitter_rms_s = 0.0; ///< Gaussian edge jitter, seconds rms
};

/// Generates sampling instants for a jittered clock.
class sampling_clock {
public:
    /// \param config periods/offset/jitter
    /// \param seed   jitter stream seed (deterministic)
    sampling_clock(clock_config config, std::uint64_t seed);

    /// n edge times starting at edge index 0: t_k = offset + k·T + j_k,
    /// the jitters j_k one rng::gaussian_fill of n (each call continues the
    /// clock's stream).
    [[nodiscard]] std::vector<double> edges(std::size_t n);

    /// Nominal (jitter-free) edge time of index k.
    [[nodiscard]] double nominal_edge(std::size_t k) const {
        return config_.offset_s + static_cast<double>(k) * config_.period_s;
    }

    [[nodiscard]] const clock_config& config() const { return config_; }

private:
    clock_config config_;
    rng gen_;
};

} // namespace sdrbist::adc
