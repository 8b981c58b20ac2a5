/// \file mt_recurrence.hpp
/// \brief The MT19937-64 twist (Matsumoto & Nishimura), shared by the
///        backend translation units so each compiles it under its own ISA
///        flags.
///
/// Internal linkage on purpose: one inline definition with external
/// linkage, compiled once with `-mavx2` and once without, would let the
/// linker keep the AVX2 body for every caller.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/simd/kernel_backend.hpp"

namespace sdrbist::simd {
namespace {

/// One full twist of the 312-word state: xₖ ← x_{k+m} ⊕ A(upper(xₖ) |
/// lower(x_{k+1})), m = 156, in three loops (k < n−m reads old words only,
/// n−m ≤ k < n−1 reads words the first loop wrote, the last word wraps to
/// x₀).  The shift distance m ≥ 4, so every loop vectorises without
/// reordering a dependence.
inline void mt_twist(std::uint64_t* x) {
    constexpr std::size_t n = mt_state_words;
    constexpr std::size_t m = 156;
    constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t lower = ~upper;
    constexpr std::uint64_t a = 0xB5026F5AA96619E9ull;
    const auto twist = [](std::uint64_t far, std::uint64_t hi,
                          std::uint64_t lo) {
        const std::uint64_t y = (hi & upper) | (lo & lower);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & a);
    };
    std::size_t k = 0;
    for (; k < n - m; ++k)
        x[k] = twist(x[k + m], x[k], x[k + 1]);
    for (; k < n - 1; ++k)
        x[k] = twist(x[k + m - n], x[k], x[k + 1]);
    x[n - 1] = twist(x[m - 1], x[n - 1], x[0]);
}

} // namespace
} // namespace sdrbist::simd
