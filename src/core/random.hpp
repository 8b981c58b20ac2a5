/// \file random.hpp
/// \brief Deterministic, seedable random number generation.
///
/// Every stochastic model in the library (jitter, noise, data sources) takes
/// an explicit `rng` (or a seed) so that simulations are reproducible and
/// tests are deterministic.  No global RNG state exists anywhere (Core
/// Guidelines I.2).
///
/// Stream contract (specified to the bit, so a seed names the same stream
/// under every compiler, standard library and kernel backend):
///  * `next_u64` is MT19937-64 with the standard seeding (x₀ = seed,
///    xᵢ = 6364136223846793005·(xᵢ₋₁ ⊕ xᵢ₋₁≫62) + i) and tempering — the
///    words `std::mt19937_64(seed)` returns.  The state twist runs as the
///    dispatched `simd::kernel_ops::mt_refill`.
///  * `canonical` is one word·2⁻⁶⁴, clamped below 1.
///  * `uniform(lo, hi)` is canonical·(hi − lo) + lo.
///  * `gaussian(μ, σ)` is Marsaglia's polar method: x = 2u − 1, y = 2u − 1
///    (two canonicals), rejecting r² = x² + y² > 1 and r² = 0; with
///    mult = √(−2·ln r² / r²) it returns (y·mult)·σ + μ and discards
///    x·mult.  σ = 0 returns μ without a draw.
///  * `gaussian_fill(out, σ)` keeps both polar outputs: each accepted pair
///    writes y·mult·σ, then x·mult·σ — the stream one
///    `std::normal_distribution(0, σ)` kept for the whole fill returns.
///    An odd length drops the last pair's x.  σ = 0 writes zeros without a
///    draw.
///  * `uniform_int` is `std::uniform_int_distribution<int>` over this
///    generator, so it is portable only across standard libraries that
///    implement that distribution alike.
///
/// Under libstdc++ `canonical`, `uniform` and `gaussian` equal
/// `std::generate_canonical<double, 53>`, `std::uniform_real_distribution`
/// and a fresh `std::normal_distribution` per draw on `std::mt19937_64`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sdrbist {

/// Seedable pseudo-random generator (MT19937-64; see the stream contract).
/// Also a uniform random bit generator for the standard distributions.
class rng {
public:
    using result_type = std::uint64_t;

    /// Construct from a 64-bit seed.  Identical seeds yield identical streams.
    explicit rng(std::uint64_t seed);

    /// One sample from N(mean, sigma^2).
    double gaussian(double mean = 0.0, double sigma = 1.0);

    /// Fill `out` with i.i.d. samples from N(0, sigma^2), two per polar
    /// pair (half the draws and logarithms of one gaussian() per sample).
    void gaussian_fill(std::span<double> out, double sigma);

    /// One sample from U[lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0);

    /// One integer sample from U{lo, ..., hi} (inclusive).
    int uniform_int(int lo, int hi);

    /// One raw 64-bit draw (e.g. to derive independent child seeds).
    std::uint64_t next_u64() {
        if (next_ == state_words)
            refill();
        return temper(state_[next_++]);
    }

    /// Derive an independent child generator (stable: consumes one draw).
    rng fork() { return rng(next_u64()); }

    /// n i.i.d. samples from U[lo, hi).
    std::vector<double> uniform_vector(std::size_t n, double lo = 0.0,
                                       double hi = 1.0);

    /// Uniform random bit generator interface.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return next_u64(); }

private:
    static constexpr std::size_t state_words = 312;

    static std::uint64_t temper(std::uint64_t z) {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71D67FFFEDA60000ull;
        z ^= (z << 37) & 0xFFF7EEE000000000ull;
        return z ^ (z >> 43);
    }

    /// Twist the whole state (the dispatched kernel) and rewind.
    void refill();

    /// One sample from U[0, 1): one raw draw scaled by 2⁻⁶⁴.
    double canonical();

    /// One accepted polar pair (y·mult, x·mult) of unit variance.
    std::pair<double, double> polar();

    std::uint64_t state_[state_words];
    std::size_t next_ = state_words; ///< next word to temper
};

} // namespace sdrbist
