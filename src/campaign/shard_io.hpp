/// \file shard_io.hpp
/// \brief Full-fidelity campaign result files for cross-process merging.
///
/// The export JSON (campaign/export.{hpp,cpp}) is a *summary* format: its
/// scenario rows carry selected metrics, not the whole report, so it
/// cannot be merged back into a campaign_result.  This module defines the
/// complementary *shard file*: a versioned JSON document that round-trips
/// every field the aggregation and exporters read — scenario coordinates,
/// verdict reports bit-for-bit (through the cache's report serialisation:
/// shortest round-trip doubles), error strings, timing and counters.
///
///   campaign_runner --shard 0/3 --shard-out shard0.json …
///   campaign_runner --merge shard0.json shard1.json shard2.json --json …
///
/// `read_result_file` + `merge_results()` therefore recombine shard
/// processes without the shared `--store` the old merge flow needed,
/// and the merged exports are byte-identical (timing suppressed) to an
/// unsharded run's.
#pragma once

#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"

namespace sdrbist::campaign {

/// Shard-file layout version; read_result rejects other versions loudly.
/// v2: added the per-category `telemetry` aggregate block.
/// v3: failure-containment fields — per-row attempts/backoff_ms/gave_up/
///     timed_out, per-result resumed/quarantined.
/// v4: stage-artefact store counters — per-result store_hits/store_misses/
///     store_bytes.
/// v5: the never-recorded `pool` category left the telemetry block.
inline constexpr int shard_file_version = 5;

/// Serialise a campaign result (typically one shard's) with full fidelity.
/// Deterministic: fixed field order, shortest round-trip doubles — so
/// write(read(x)) is byte-identical to write(x).
std::string result_to_json(const campaign_result& result);

/// Rebuild a campaign result from its shard-file form.  The coverage
/// matrix and population statistics are re-derived by `merge_results`
/// (shard files deliberately store only ground truth: the rows).  Throws
/// contract_violation on version or structure mismatches.
campaign_result result_from_json(const json_value& doc);

/// One scenario row with full fidelity — the unit the shard file, the
/// crash-recovery journal (campaign/journal.hpp) and any future
/// distributed transport share.  Deterministic field order; 64-bit values
/// travel as decimal strings.
std::string scenario_row_json(const scenario_result& r);
scenario_result scenario_row_from_json(const json_value& v);

/// File convenience wrappers.  `read_result_file` throws
/// contract_violation when the file is missing or malformed;
/// `write_result_file` returns false when the file cannot be written.
/// Writes publish atomically (unique temp file + rename), so a reader —
/// or a post-crash `--merge` — only ever sees the target absent or
/// complete, never torn, and a failed write leaves any previous file
/// untouched.
campaign_result read_result_file(const std::string& path);
[[nodiscard]] bool write_result_file(const std::string& path,
                                     const campaign_result& result);

/// Lenient multi-file read for salvaging partially-failed distributed
/// runs (`campaign_runner --merge --salvage`): a file that is missing,
/// truncated, garbled or version-skewed is moved to a `quarantine/`
/// directory beside it (see campaign/cache.hpp) and skipped, counted in
/// `stats.quarantined_files` with a note — instead of failing the whole
/// merge.  Pair with `merge_results_salvage` for row-level leniency.
std::vector<campaign_result>
read_result_files_salvage(const std::vector<std::string>& paths,
                          salvage_stats& stats);

} // namespace sdrbist::campaign
