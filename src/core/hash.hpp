/// \file hash.hpp
/// \brief Stable 64-bit content hashing (FNV-1a) for cache keys.
///
/// The campaign result cache keys on-disk artefacts by a hash of a
/// *canonical text serialisation* of the work description.  The hash must
/// therefore be stable across runs, processes, compilers and platforms —
/// which rules out std::hash (unspecified, salted on some standard
/// libraries).  FNV-1a over bytes is fully specified, trivially portable
/// and fast for the short keys we feed it.
///
/// Numeric inputs are hashed through their canonical *text* rendering
/// (see bist/config_canonical.hpp), never through raw object bytes, so
/// padding, endianness and struct layout can never leak into a key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sdrbist {

/// Incremental FNV-1a 64-bit hasher.
///
///   fnv1a64 h;
///   h.update("campaign-cache-v1\n");
///   h.update(canonical_stage_text);
///   const std::string key = h.hex();
class fnv1a64 {
public:
    static constexpr std::uint64_t offset_basis = 0xCBF29CE484222325ull;
    static constexpr std::uint64_t prime = 0x100000001B3ull;

    /// Absorb raw bytes.
    void update(std::string_view bytes) {
        for (const char c : bytes) {
            state_ ^= static_cast<unsigned char>(c);
            state_ *= prime;
        }
    }

    /// Current digest value.
    [[nodiscard]] std::uint64_t value() const { return state_; }

    /// Digest as a fixed-width 16-character lowercase hex string — the
    /// on-disk cache file stem.
    [[nodiscard]] std::string hex() const { return hex_digest(state_); }

    /// One-shot convenience.
    [[nodiscard]] static std::uint64_t hash(std::string_view bytes) {
        fnv1a64 h;
        h.update(bytes);
        return h.value();
    }

    /// Render any 64-bit digest as fixed-width lowercase hex.
    [[nodiscard]] static std::string hex_digest(std::uint64_t v) {
        static constexpr char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 15; i >= 0; --i) {
            out[static_cast<std::size_t>(i)] = digits[v & 0xF];
            v >>= 4;
        }
        return out;
    }

private:
    std::uint64_t state_ = offset_basis;
};

} // namespace sdrbist
