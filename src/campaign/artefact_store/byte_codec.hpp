/// \file byte_codec.hpp
/// \brief Self-contained byte-oriented compression for stage-artefact
///        store payloads: LZ77 (literal runs + back-references) with
///        varint-coded tokens.  No external dependencies.
///
/// The store serialises stage outputs as shortest-form JSON (highly
/// repetitive: field names, `],[` separators, long runs of similar
/// mantissa text), which a small dictionary coder compresses well — the
/// point is to make multi-MB reconstruction artefacts affordable on disk,
/// not to chase ratio records.  The format is deliberately dumb and
/// versioned:
///
///   stream := token*
///   token  := varint v
///             v even → literal run of (v >> 1) bytes, which follow raw
///             v odd  → match of length (v >> 1) >= min_match, followed by
///                      varint distance (1 .. window behind the cursor)
///
/// Decoding stops when exactly `raw_size` bytes have been produced (the
/// caller carries the raw size in the entry header); anything else —
/// truncation, overrun, zero/oversized distance — throws
/// `contract_violation`, which the store treats as a corrupt entry.
///
/// The encoder is a greedy hash-chained matcher and is deterministic: one
/// input always yields one output byte stream.  Any change to the token
/// grammar or the matcher's tie-breaking MUST bump `byte_codec_version`
/// (part of every entry header; skew reads as a plain miss).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace sdrbist::campaign {

/// Version of the token grammar + encoder behaviour.
inline constexpr int byte_codec_version = 1;

/// Largest raw size byte_codec_decompress accepts (1 GiB).  No store
/// record comes near it, so a larger size in an entry header is forged or
/// corrupt — rejected before anything is allocated for it.
inline constexpr std::size_t byte_codec_max_raw_bytes = std::size_t{1} << 30;

/// Compress `raw` into the token stream described above.
[[nodiscard]] std::string byte_codec_compress(std::string_view raw);

/// Inverse of byte_codec_compress.  `raw_size` is the expected decoded
/// size (from the entry header); throws contract_violation when it
/// exceeds byte_codec_max_raw_bytes, or when the stream is malformed or
/// does not decode to exactly `raw_size` bytes.
[[nodiscard]] std::string byte_codec_decompress(std::string_view packed,
                                                std::size_t raw_size);

} // namespace sdrbist::campaign
