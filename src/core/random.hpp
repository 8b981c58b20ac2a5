/// \file random.hpp
/// \brief Deterministic, seedable random number generation.
///
/// Every stochastic model in the library (jitter, noise, data sources) takes
/// an explicit `rng` (or a seed) so that simulations are reproducible and
/// tests are deterministic.  No global RNG state exists anywhere (Core
/// Guidelines I.2).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace sdrbist {

/// Seedable pseudo-random generator wrapping std::mt19937_64.
class rng {
public:
    /// Construct from a 64-bit seed.  Identical seeds yield identical streams.
    explicit rng(std::uint64_t seed) : engine_(seed) {}

    /// One sample from N(mean, sigma^2).
    double gaussian(double mean = 0.0, double sigma = 1.0);

    /// One sample from U[lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0);

    /// One integer sample from U{lo, ..., hi} (inclusive).
    int uniform_int(int lo, int hi);

    /// One raw 64-bit draw (e.g. to derive independent child seeds).
    std::uint64_t next_u64() { return engine_(); }

    /// Derive an independent child generator (stable: consumes one draw).
    rng fork() { return rng(next_u64()); }

    /// n i.i.d. samples from U[lo, hi).
    std::vector<double> uniform_vector(std::size_t n, double lo = 0.0,
                                       double hi = 1.0);

    /// Access the underlying engine (for std distributions).
    std::mt19937_64& engine() { return engine_; }

private:
    std::mt19937_64 engine_;
};

} // namespace sdrbist
