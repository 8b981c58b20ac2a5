/// \file journal.hpp
/// \brief Crash-safe campaign journal: append-only JSONL of completed
///        scenarios, the substrate of `campaign_runner --resume`.
///
/// A campaign that dies mid-run (OOM kill, pre-emption, power) should
/// cost only the scenarios in flight, not the whole grid.  The runner
/// appends one fsync'd line per *completed* scenario — full-fidelity row
/// (the shard-file serialisation) plus the scenario's content digest (the
/// scenario-cache key).  On `--resume` the journal is replayed: rows
/// whose digest still matches what the current config derives are
/// restored in place, everything else is recomputed, and the resumed
/// run's exports are byte-identical (timing suppressed) to an
/// uninterrupted run's.
///
/// Durability/consistency contracts:
///  * **One line, one write, one fsync.**  Each row is appended with a
///    single write call and fsync'd, so a crash leaves at most one torn
///    *trailing* line.  `read_journal` tolerates exactly that: it stops
///    at the first unparseable line and reports the clean prefix; the
///    writer truncates the tail before resuming appends.
///  * **Best-effort, never load-bearing.**  An append failure is counted
///    and dropped — recovery just recomputes that scenario.  The journal
///    can make a rerun cheaper, never a run wronger.
///  * **Identity-guarded.**  The header carries a digest of the campaign
///    shape (seed, grid axes, shard, base config digest).  Resuming
///    against a different campaign is a contract violation; per-row
///    digests then re-validate each restored scenario individually.
///  * **Only deterministic outcomes are journalled** (success or contract
///    rejection).  Gave-up / timed-out rows are environment-dependent and
///    must be re-attempted by the resuming run, so the runner never
///    writes them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace sdrbist::campaign {

/// Journal format version: the line format and the identity text.
/// read_journal rejects other versions; a change to either bumps it.
inline constexpr int journal_format_version = 2;

/// Digest of the campaign *shape*: everything that decides which
/// scenarios exist and what each one computes — seed, trials, reseed
/// policy, perturbations, shard, preset/fault axes and the base config's
/// grading input digest (bist/config_canonical.hpp), so a bump of
/// `stage_canonical_version` stops journals of older numerics resuming.
/// Execution knobs (threads, cache_dir, stage_store_dir, retry/deadline
/// settings) are deliberately excluded: they cannot change any
/// deterministic result, so a resume may use different ones.
std::string campaign_identity(const campaign_config& cfg);

/// One replayed journal row.
struct journal_row {
    std::string key; ///< scenario-cache digest ("" = config rejected)
    scenario_result result;
};

/// Outcome of reading a journal file.
struct journal_replay {
    std::string identity;        ///< header identity digest
    std::vector<journal_row> rows;
    std::size_t torn_lines = 0;  ///< trailing lines dropped as torn
    std::uint64_t valid_bytes = 0; ///< size of the clean prefix
};

/// Parse a journal.  Tolerates a torn/garbled tail (counted, prefix
/// kept); throws contract_violation when the file cannot be read or the
/// header line itself is missing, malformed or version-skewed (the
/// message names the path and the version found vs expected).
journal_replay read_journal(const std::string& path);

/// read_journal for resuming the campaign `identity`: also throws
/// contract_violation, naming the path and both identities, when the
/// journal was written for a different campaign.
journal_replay read_journal(const std::string& path,
                            const std::string& identity);

/// Append-side handle.  Construction either starts a fresh journal
/// (truncate + header) or — with `resume` — validates the existing one
/// against `identity`, truncates any torn tail and continues appending.
class campaign_journal {
public:
    campaign_journal(const std::string& path, const std::string& identity,
                     bool resume);
    ~campaign_journal();
    campaign_journal(const campaign_journal&) = delete;
    campaign_journal& operator=(const campaign_journal&) = delete;

    /// Durably append one completed scenario (thread-safe).  Returns
    /// false when the line could not be written whole — a partial write
    /// is rolled back so the journal stays parseable.
    bool append(const std::string& key, const scenario_result& r);

private:
    bool write_line(const std::string& line);

    std::mutex mutex_;
    std::FILE* file_ = nullptr; ///< append stream; fsync'd per line on POSIX
};

} // namespace sdrbist::campaign
