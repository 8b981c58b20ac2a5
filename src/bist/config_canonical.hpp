/// \file config_canonical.hpp
/// \brief Canonical text serialisation of a materialised bist_config.
///
/// The campaign result cache must key a scenario by *what would be
/// computed*: the fully materialised engine configuration (preset applied,
/// fault injected, seeds and perturbations derived).  Two scenarios with
/// byte-identical canonical text are guaranteed to produce bit-identical
/// reports, so a cache hit can stand in for an engine run.
///
/// Canonical form rules:
///   - one `key=value` line per leaf field, fixed order, '\n' separated;
///   - doubles rendered in shortest round-trip form (std::to_chars), so
///     the text is a bijection of the double value on every platform;
///   - enums rendered as their underlying integer (stable within a
///     serialisation version);
///   - a leading `canon=vN` line versions the serialisation itself — any
///     change to the field set or rendering MUST bump it, which moves every
///     cache key and naturally invalidates stale on-disk entries.  So MUST
///     any change to the numbers the engine computes from an unchanged
///     configuration (a reassociated or re-derived kernel): the promise
///     above is about bits, and entries primed by the old numerics must
///     miss rather than mix into exports.
#pragma once

#include <cstdint>
#include <string>

#include "bist/engine.hpp"
#include "bist/stages.hpp"

namespace sdrbist::bist {

/// Version of the canonical serialisation (see file comment).
inline constexpr int canonical_config_version = 7;

/// Render the configuration in canonical text form.
[[nodiscard]] std::string canonical_config_text(const bist_config& config);

/// FNV-1a digest of `canonical_config_text` (convenience for diagnostics;
/// the campaign cache mixes this with grid coordinates, see
/// campaign/cache.hpp).
[[nodiscard]] std::uint64_t config_digest(const bist_config& config);

// ---------------------------------------------------------------------------
// Per-stage canonical slices (the staged pipeline, bist/pipeline.hpp).
//
// Each pipeline stage consumes a subset of the configuration.  Its
// canonical *slice* renders exactly that subset (same rules as the full
// canonical form), and the stage *input digest* chains the slices of the
// stage and everything upstream of it.  Two configurations with equal
// input digests for a stage are guaranteed to produce bit-identical stage
// outputs — the invariant `campaign_runner` relies on to share upstream
// stage results across scenarios that only differ downstream.
//
// The slices deliberately key *computation*, not presentation: cosmetic
// fields the stage never reads (e.g. the preset *name*) are excluded, so
// renamed-but-identical presets still share work.  Over-keying a slice
// costs sharing; under-keying is a correctness bug — any new config field
// must be added to the slice of every stage that reads it, and any change
// here MUST bump `stage_canonical_version`.  So MUST any change to the
// numbers a stage produces from unchanged inputs, so stage entries primed
// by the old numerics read as plain misses.
// ---------------------------------------------------------------------------

/// Version of the stage-slice serialisation (field assignment + rendering).
inline constexpr int stage_canonical_version = 7;

/// Canonical text of the configuration subset stage `s` consumes directly
/// (upstream fields are covered by the upstream stages' slices).
[[nodiscard]] std::string canonical_stage_text(const bist_config& config,
                                               stage s);

/// FNV-1a digest over the canonical slices of `s` and every stage before
/// it — the content hash of everything that determines `s`'s output.
[[nodiscard]] std::uint64_t stage_input_digest(const bist_config& config,
                                               stage s);

} // namespace sdrbist::bist
