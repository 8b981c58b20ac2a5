#include "campaign/artefact_store/byte_codec.hpp"

#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace sdrbist::campaign {

namespace {

// Matcher parameters.  window must stay a power of two; chain_limit bounds
// the worst-case encode cost on adversarial input without affecting
// determinism (the walk order is fixed).
constexpr std::size_t min_match = 4;
constexpr std::size_t window = 1u << 16;
constexpr std::size_t hash_bits = 15;
constexpr std::size_t chain_limit = 64;

void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (v & 0x7F)));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

std::uint64_t get_varint(std::string_view in, std::size_t& pos) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        SDRBIST_EXPECTS(pos < in.size() && shift < 64);
        const auto byte = static_cast<unsigned char>(in[pos++]);
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
    }
}

std::uint32_t hash4(const char* p) {
    std::uint32_t v;
    // Byte-order independent: assemble explicitly.
    v = static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
    return (v * 2654435761u) >> (32 - hash_bits);
}

} // namespace

std::string byte_codec_compress(std::string_view raw) {
    std::string out;
    out.reserve(raw.size() / 2 + 16);

    // head[h] / chain[i & (window-1)]: positions of previous occurrences of
    // each 4-byte hash, newest first.  npos marks an empty slot.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> head(std::size_t{1} << hash_bits, npos);
    std::vector<std::size_t> chain(window, npos);

    const std::size_t n = raw.size();
    std::size_t lit_start = 0; // first byte of the pending literal run
    std::size_t i = 0;

    auto flush_literals = [&](std::size_t upto) {
        std::size_t pos = lit_start;
        while (pos < upto) {
            // Varint length then raw bytes; cap nothing — one run is fine.
            const std::size_t len = upto - pos;
            put_varint(out, static_cast<std::uint64_t>(len) << 1);
            out.append(raw.data() + pos, len);
            pos = upto;
        }
        lit_start = upto;
    };

    auto insert = [&](std::size_t pos) {
        const std::uint32_t h = hash4(raw.data() + pos);
        chain[pos & (window - 1)] = head[h];
        head[h] = pos;
    };

    while (i + min_match <= n) {
        // Find the longest previous match within the window, preferring
        // the most recent occurrence on ties (shortest distance).
        std::size_t best_len = 0;
        std::size_t best_pos = npos;
        std::size_t cand = head[hash4(raw.data() + i)];
        for (std::size_t steps = 0;
             cand != npos && steps < chain_limit &&
             cand + window > i && cand < i;
             cand = chain[cand & (window - 1)], ++steps) {
            const std::size_t limit = n - i;
            std::size_t len = 0;
            while (len < limit && raw[cand + len] == raw[i + len])
                ++len;
            if (len > best_len) {
                best_len = len;
                best_pos = cand;
            }
        }

        if (best_len >= min_match) {
            flush_literals(i);
            put_varint(out, (static_cast<std::uint64_t>(best_len) << 1) | 1);
            put_varint(out, static_cast<std::uint64_t>(i - best_pos));
            // Index every covered position so later matches can reach into
            // this span too.
            const std::size_t end = i + best_len;
            for (; i < end && i + min_match <= n; ++i)
                insert(i);
            i = end;
            lit_start = end;
        } else {
            insert(i);
            ++i;
        }
    }
    flush_literals(n);
    return out;
}

std::string byte_codec_decompress(std::string_view packed,
                                  std::size_t raw_size) {
    SDRBIST_EXPECTS(raw_size <= byte_codec_max_raw_bytes);
    std::string out;
    out.reserve(raw_size);
    std::size_t pos = 0;
    while (out.size() < raw_size) {
        const std::uint64_t token = get_varint(packed, pos);
        const std::size_t len = static_cast<std::size_t>(token >> 1);
        SDRBIST_EXPECTS(len > 0 && out.size() + len <= raw_size);
        if ((token & 1) == 0) {
            SDRBIST_EXPECTS(pos + len <= packed.size());
            out.append(packed.data() + pos, len);
            pos += len;
        } else {
            const std::size_t dist =
                static_cast<std::size_t>(get_varint(packed, pos));
            SDRBIST_EXPECTS(dist >= 1 && dist <= out.size() &&
                            dist <= window);
            // Overlapping copies are the RLE case: copy byte-by-byte.
            std::size_t src = out.size() - dist;
            for (std::size_t k = 0; k < len; ++k)
                out.push_back(out[src + k]);
        }
    }
    SDRBIST_EXPECTS(pos == packed.size());
    return out;
}

} // namespace sdrbist::campaign
