#include "core/random.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/contracts.hpp"
#include "core/simd/kernel_backend.hpp"

namespace sdrbist {

rng::rng(std::uint64_t seed) {
    static_assert(state_words == simd::mt_state_words);
    state_[0] = seed;
    for (std::size_t i = 1; i < state_words; ++i)
        state_[i] = 6364136223846793005ull *
                        (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                    i;
}

void rng::refill() {
    // The twist is integer-only and bit-identical on every backend, so one
    // table per process is enough: capturing it once keeps
    // `simd.dispatches` counting table hand-outs to kernel consumers rather
    // than generator refills.
    static const auto twist = simd::kernel_backend::select().mt_refill;
    twist(state_);
    next_ = 0;
}

double rng::canonical() {
    // The word's halves convert exactly and their sum rounds once, so this
    // is the correctly rounded conversion without the sign-bit branch a
    // plain uint64 → double conversion takes.
    const std::uint64_t w = next_u64();
    const double u = (static_cast<double>(w >> 32) * 0x1p32 +
                      static_cast<double>(w & 0xFFFFFFFFu)) *
                     0x1p-64;
    // Draws within 2^10 of 2^64 round up to 1; clamp to nextafter(1, 0).
    return u < 1.0 ? u : 1.0 - 0x1p-53;
}

std::pair<double, double> rng::polar() {
    double x, y, r2;
    do {
        x = 2.0 * canonical() - 1.0;
        y = 2.0 * canonical() - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return {y * mult, x * mult};
}

double rng::gaussian(double mean, double sigma) {
    SDRBIST_EXPECTS(sigma >= 0.0);
    if (sigma == 0.0)
        return mean; // no draw
    return polar().first * sigma + mean;
}

void rng::gaussian_fill(std::span<double> out, double sigma) {
    SDRBIST_EXPECTS(sigma >= 0.0);
    if (sigma == 0.0) {
        std::fill(out.begin(), out.end(), 0.0);
        return;
    }
    std::size_t i = 0;
    for (; i + 1 < out.size(); i += 2) {
        const auto [y, x] = polar();
        out[i] = y * sigma;
        out[i + 1] = x * sigma;
    }
    if (i < out.size())
        out[i] = polar().first * sigma;
}

double rng::uniform(double lo, double hi) {
    SDRBIST_EXPECTS(lo <= hi);
    return canonical() * (hi - lo) + lo;
}

int rng::uniform_int(int lo, int hi) {
    SDRBIST_EXPECTS(lo <= hi);
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(*this);
}

std::vector<double> rng::uniform_vector(std::size_t n, double lo, double hi) {
    std::vector<double> out(n);
    for (double& x : out)
        x = uniform(lo, hi);
    return out;
}

} // namespace sdrbist
