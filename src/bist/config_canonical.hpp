/// \file config_canonical.hpp
/// \brief Canonical form of a materialised bist_config: the stage-slice
///        chain.
///
/// Every cache layer keys work by *what would be computed*.  Each stage
/// of the staged pipeline (bist/pipeline.hpp) consumes a subset of the
/// configuration; its canonical *slice* renders exactly that subset, and
/// the stage *input digest* chains the slices of the stage and every stage
/// upstream of it.  Two configurations with equal input digests for a
/// stage produce bit-identical stage outputs.  The grading digest covers
/// every field the engine reads, so it is also the configuration part of
/// the scenario-cache key (campaign/cache.hpp) and of the campaign
/// journal identity (campaign/journal.hpp) — there is no second form.
///
/// Canonical form rules:
///   - one `key=value` line per leaf field, fixed order, '\n' separated;
///   - doubles rendered in shortest round-trip form (std::to_chars), so
///     the text is a bijection of the double value on every platform;
///   - enums rendered as their underlying integer (stable within a
///     serialisation version);
///   - every field goes in the slice of each stage that reads it.
///     Over-keying a slice costs sharing; under-keying is a correctness
///     bug.  Cosmetic fields no stage reads (the preset *name*) are left
///     out, so renamed-but-identical presets share work;
///   - a leading `stage_canon=N` line versions the serialisation.  Any
///     change to the field assignment or rendering MUST bump
///     `stage_canonical_version`, and so MUST any change to the numbers a
///     stage computes from unchanged inputs (a reassociated or re-derived
///     kernel): the promise above is about bits, so entries primed by the
///     old numerics must read as plain misses rather than mix into
///     exports.  The bump moves every stage digest, scenario key and
///     journal identity.
#pragma once

#include <cstdint>
#include <string>

#include "bist/engine.hpp"
#include "bist/stages.hpp"

namespace sdrbist::bist {

/// Version of the stage-slice serialisation (see file comment).
inline constexpr int stage_canonical_version = 8;

/// Canonical text of the configuration subset stage `s` consumes directly
/// (upstream fields are covered by the upstream stages' slices).
[[nodiscard]] std::string canonical_stage_text(const bist_config& config,
                                               stage s);

/// FNV-1a digest over the canonical slices of `s` and every stage before
/// it — the content hash of everything that determines `s`'s output.
[[nodiscard]] std::uint64_t stage_input_digest(const bist_config& config,
                                               stage s);

} // namespace sdrbist::bist
