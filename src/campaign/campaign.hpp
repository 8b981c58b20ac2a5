/// \file campaign.hpp
/// \brief Parallel BIST campaigns: declarative scenario grids graded at
///        production scale.
///
/// The paper's claim is *flexibility* — one BIST architecture for any
/// standard and any fault.  A campaign makes that claim measurable: it
/// expands a grid of standard presets × injected faults × Monte-Carlo
/// trials into independent `bist_engine` jobs, executes them on a thread
/// pool, and aggregates the reports into a fault-coverage matrix plus
/// yield/escape statistics.
///
/// Determinism contract: every scenario's seeds are derived from the
/// campaign master seed and the scenario's *grid coordinates* (never from
/// execution order), and results land in grid-indexed slots — so the
/// coverage matrix is bit-identical at 1 thread and at N threads.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bist/engine.hpp"
#include "bist/faults.hpp"
#include "core/telemetry.hpp"
#include "waveform/standard.hpp"

namespace sdrbist::campaign {

/// Deterministic partition of the expanded grid for distributed execution.
/// Shard k of K owns every scenario whose grid index ≡ k (mod K) — a
/// round-robin split, so presets of very different cost spread evenly
/// across shards.  Grid-coordinate seed derivation makes shards fully
/// independent; `merge_results()` recombines them bit-identically.
struct shard_spec {
    std::size_t index = 0; ///< this shard's id, in [0, count)
    std::size_t count = 1; ///< total shards; 1 = the whole grid

    [[nodiscard]] bool contains(std::size_t scenario_index) const {
        return scenario_index % count == index;
    }
};

/// Contiguous half-open slice [begin, end) of the expanded grid, applied
/// on top of `shard_spec` filtering.  The distributed campaign service
/// leases these ranges to workers; `merge_results()` accepts any
/// exact-coverage partition, so contiguous slices recombine exactly like
/// mod-K shards.  Excluded from the journal identity (like the other
/// execution knobs): one worker journal spans every lease it executes.
struct lease_range {
    std::size_t begin = 0;
    std::size_t end = 0; ///< exclusive

    [[nodiscard]] bool contains(std::size_t scenario_index) const {
        return scenario_index >= begin && scenario_index < end;
    }
    [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// How Monte-Carlo trials derive their randomness from the per-scenario
/// seed (see `scenario_config`).
enum class reseed_policy {
    /// Fresh device seeds per trial (tx, tiadc, probes) plus the
    /// `trial_perturbation` spread: every trial is a different physical
    /// device.  The historical default.
    device,
    /// Fresh probe placement only: device seeds stay at `base`, so trials
    /// measure the skew estimator's sensitivity to the random probe draw
    /// (the paper's N random instants) on one fixed device — and the
    /// stimulus/Tx/capture pipeline stages stay bit-identical across
    /// trials, which the runner's stage pool turns into shared work.
    probes,
    /// No reseeding: every scenario keeps the seeds of `base` (legacy
    /// `run_catalogue` semantics).
    off,
};

/// Monte-Carlo perturbations applied per trial on top of the derived seeds
/// (device-to-device spread a production population would show).  Only
/// meaningful under `reseed_policy::device`.
struct trial_perturbation {
    /// Log-normal sigma on the TIADC sampling jitter: per trial the rms
    /// jitter is multiplied by exp(N(0, sigma)).  0 = no spread.
    double jitter_rel_sigma = 0.0;
    /// Gaussian DCDE static-error spread (seconds rms) added to the delay
    /// element per trial.  0 = no spread.
    double dcde_static_sigma_s = 0.0;
};

/// Declarative scenario grid.  The expanded grid is ordered preset-major,
/// then fault, then trial — `scenario::index` is the row number.
struct campaign_config {
    bist::bist_config base{};               ///< shared engine configuration
    std::vector<waveform::standard_preset> presets =
        waveform::standard_catalogue();
    std::vector<bist::fault_kind> faults = bist::fault_catalogue();
    std::size_t trials = 1;                 ///< Monte-Carlo repeats per cell

    std::uint64_t seed = 0x5EEDC0DE;        ///< campaign master seed
    /// What per-scenario reseeding derives from `seed` and the grid
    /// coordinates (`device` = the historical `reseed_trials = true`,
    /// `off` = the historical `false`).
    reseed_policy reseed = reseed_policy::device;
    trial_perturbation perturb{};

    std::size_t threads = 0;                ///< worker count; 0 = hardware

    /// Portion of the grid this process grades (default: all of it).
    shard_spec shard{};
    /// Optional contiguous grid slice graded by this run, composed with
    /// `shard` (a scenario runs when both filters accept it).  This is the
    /// campaign service's lease unit; nullopt = no slicing.
    std::optional<lease_range> lease;
    /// Store directory for finished scenario outcomes (the `scenario`
    /// record kind); empty = result caching disabled.  Keys are content
    /// hashes of the materialised per-scenario engine config (see
    /// campaign/cache.hpp), so overlapping grids and repeated runs skip
    /// already-graded scenarios.
    std::string cache_dir;
    /// Store directory for the five stage kinds; empty = stage store
    /// disabled.  Intermediate stage outputs are published keyed by their
    /// chained input digests (campaign/artefact_store/) and adopted on
    /// later runs — a warm run skips the stage computes themselves, even
    /// for scenarios the result cache cannot serve.  May name the same
    /// directory as `cache_dir` (the CLI's `--store` sets both).  Like
    /// `cache_dir`, an execution knob: never part of the cache key or
    /// journal identity, and exports stay byte-identical with the store
    /// cold, warm, or disabled.
    std::string stage_store_dir;

    // Failure containment (see also core/fault_injection.hpp, which makes
    // these paths testable on demand).

    /// Transient (`std::exception`) engine failures are re-run up to this
    /// many extra attempts per scenario.  Contract violations are
    /// deterministic rejections and are never retried.  0 disables retry.
    std::size_t max_retries = 2;
    /// Base of the bounded deterministic backoff between attempts: retry
    /// k sleeps `retry_backoff_ms * 2^(k-1)` milliseconds (recorded in
    /// `scenario_result::backoff_ms`).
    double retry_backoff_ms = 1.0;
    /// Per-scenario wall-clock budget in seconds, covering every attempt
    /// plus backoff.  An over-budget scenario is marked failed
    /// (`timed_out`) without killing the campaign; its verdict is
    /// environment-dependent, so it is never cached or journalled.
    /// 0 = no deadline.
    double scenario_deadline_s = 0.0;
    /// Crash-recovery journal path (see campaign/journal.hpp); empty = no
    /// journal.  Completed scenarios are appended as fsync'd JSONL lines.
    std::string journal_path;
    /// Resume from `journal_path`: previously journalled scenarios are
    /// restored (after their content digests re-validate) and only the
    /// missing rows are computed — exports are byte-identical to an
    /// uninterrupted run.  Requires `journal_path`.
    bool resume = false;
};

/// One expanded grid row.
struct scenario {
    std::size_t index = 0;        ///< row in the expanded grid
    std::size_t preset_index = 0; ///< into campaign_config::presets
    std::size_t fault_index = 0;  ///< into campaign_config::faults
    std::size_t trial = 0;        ///< Monte-Carlo trial number
    bist::fault_kind fault = bist::fault_kind::none;
    std::string preset_name;
    std::uint64_t seed = 0;       ///< derived scenario seed (grid-stable)

    bool operator==(const scenario&) const = default;
};

/// Outcome of one scenario.
struct scenario_result {
    scenario sc{};
    bist::bist_report report{};
    bool engine_error = false; ///< config rejected / engine threw
    std::string error;         ///< exception text when engine_error
    double elapsed_s = 0.0;    ///< wall time of the last engine attempt

    // Failure-containment accounting (attempts >= 1 always; > 1 means the
    // retry loop engaged).  A `gave_up` or `timed_out` row also has
    // `engine_error` set and carries the last attempt's error text.
    std::size_t attempts = 1; ///< engine attempts consumed
    double backoff_ms = 0.0;  ///< total deterministic backoff slept
    bool gave_up = false;     ///< still transient-failing after every retry
    bool timed_out = false;   ///< scenario_deadline_s exceeded

    /// FAIL verdict (an injected fault should flip this to true).
    [[nodiscard]] bool flagged() const { return engine_error || !report.pass(); }
};

/// One cell of the fault-coverage matrix: all trials of (preset, fault).
struct coverage_cell {
    std::size_t runs = 0;
    std::size_t flagged = 0; ///< FAIL verdicts among the runs

    /// Detection rate for fault columns; false-alarm rate for `none`.
    [[nodiscard]] double fail_rate() const {
        return runs == 0 ? 0.0
                         : static_cast<double>(flagged) /
                               static_cast<double>(runs);
    }
};

/// Aggregated campaign artefacts.
struct campaign_result {
    // Echo of the grid axes (for export and rendering).
    std::vector<std::string> preset_names;
    std::vector<std::string> fault_names;
    std::size_t trials = 0;
    std::uint64_t seed = 0;
    std::size_t threads_used = 0;

    // Shard bookkeeping.  A full (or merged) result is shard 0 of 1;
    // `grid_size` is always the size of the *full* expanded grid, so
    // `results.size() < grid_size` identifies a partial (shard) result.
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    std::size_t grid_size = 0;

    // Result-cache accounting for this run (both 0 when `cache_dir` is
    // empty).  Environment-dependent like the timing fields: a warm rerun
    // flips misses into hits, so exporters treat these as measured data.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;

    // Stage-artefact store accounting for this run (all 0 when
    // `stage_store_dir` is empty).  Measured data like the cache
    // counters: a warm rerun flips misses into hits.  Exactly equal to
    // the `store.*` telemetry counters the run emitted (`store_bytes` is
    // the raw bytes served by the hits).
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::uintmax_t store_bytes = 0;

    // Stage-pool accounting (both 0 when the rows the cache does not
    // serve have no overlap).  Unlike the cache counters these do not
    // depend on timing — the pool is planned from the digest
    // multiplicities of those rows, so adopted/computed totals are a pure
    // function of the grid and the cache contents, independent of thread
    // count and completion order.
    std::size_t stage_reuse_hits = 0;     ///< pooled stage results adopted
    std::size_t stage_reuse_computes = 0; ///< pooled stage results computed

    // Failure-containment accounting.  `scenario_retries` (sum of
    // attempts-1 over the rows) and `scenario_gave_up` are derived from
    // the scenario rows, so they merge through shards for free; `resumed`
    // and `quarantined` are per-run measured data like the cache counters
    // (a resumed rerun flips computes into restores) and sum across
    // shards.
    std::size_t scenario_retries = 0; ///< attempts re-run after transients
    std::size_t scenario_gave_up = 0; ///< rows that exhausted every retry
    std::size_t resumed = 0;          ///< rows restored from a journal
    std::size_t quarantined = 0;      ///< corrupt input files quarantined

    // Telemetry window of this run: per-category span aggregates (stage
    // costs, pool waits, cache I/O, worker idle) captured between run
    // start and end.  All zeros when telemetry was off.  Measured data
    // like the timing fields; merge_results combines additively
    // (telemetry::summary::merge_from), so sharded runs aggregate like
    // unsharded ones.
    telemetry::summary telemetry_summary{};

    /// Per-scenario outcomes in grid order (deterministic).  For a shard
    /// result these are only the shard's rows (still ascending by index).
    std::vector<scenario_result> results;
    /// matrix[preset][fault] — detection rates per cell.
    std::vector<std::vector<coverage_cell>> matrix;

    // Population statistics.
    std::size_t golden_runs = 0;    ///< scenarios with fault == none
    std::size_t golden_passes = 0;  ///< of which PASS (yield)
    std::size_t fault_runs = 0;     ///< scenarios with an injected fault
    std::size_t fault_detected = 0; ///< of which FAIL (coverage)

    // Timing.
    double wall_s = 0.0;         ///< end-to-end campaign wall time
    double scenario_cpu_s = 0.0; ///< sum of per-scenario engine times

    [[nodiscard]] std::size_t scenario_count() const { return results.size(); }
    /// Fraction of golden devices passing (production yield proxy).
    [[nodiscard]] double yield() const {
        return golden_runs == 0 ? 0.0
                                : static_cast<double>(golden_passes) /
                                      static_cast<double>(golden_runs);
    }
    /// Fraction of faulty devices flagged.
    [[nodiscard]] double coverage() const {
        return fault_runs == 0 ? 0.0
                               : static_cast<double>(fault_detected) /
                                     static_cast<double>(fault_runs);
    }
    /// Fraction of faulty devices shipped (1 - coverage).
    [[nodiscard]] double escape_rate() const {
        return fault_runs == 0 ? 0.0 : 1.0 - coverage();
    }
    [[nodiscard]] double scenarios_per_second() const {
        return wall_s <= 0.0 ? 0.0
                             : static_cast<double>(results.size()) / wall_s;
    }
};

/// Expand the grid (preset-major, then fault, then trial) with derived
/// per-scenario seeds.  Pure function of the config.
std::vector<scenario> expand_grid(const campaign_config& cfg);

/// Materialise the engine configuration for one scenario: preset applied
/// (mask relaxed to the measurement floor, per-preset
/// `acpr_offset_hz` preserved), fault injected, seeds/perturbations derived.
bist::bist_config scenario_config(const campaign_config& cfg,
                                  const scenario& sc);

/// Observers the runner invokes while a campaign executes.
struct run_hooks {
    /// Called once per scenario the moment its result slot is final
    /// (engine run finished, cache hit, or restored from a resumed
    /// journal).  Invoked concurrently from
    /// worker threads in completion order — the callee must synchronise
    /// (campaign::jsonl_stream does).  The reference is only valid for the
    /// duration of the call.
    std::function<void(const scenario_result&)> on_scenario;
};

/// Executes campaigns on a fixed thread pool.
class campaign_runner {
public:
    explicit campaign_runner(campaign_config config);

    /// Run the configured portion of the grid (all of it by default; the
    /// shard's rows when `config.shard` says so).  Results are in grid
    /// order and bit-identical for any thread count; with `cache_dir` set,
    /// already-graded scenarios are restored from disk instead of re-run.
    ///
    /// Rows the cache does not serve share pipeline work: the runner
    /// pools every stimulus → reconstruction stage whose input digest
    /// more than one of them needs (prefix sharing: a stage is adopted
    /// only when every stage upstream of it is too), computes it once and
    /// frees it when its last consumer finishes — so memory is bounded by
    /// the actual overlap, and grids with none (e.g. fully
    /// device-reseeded trials) pay nothing.  Equal digests guarantee equal
    /// outputs, so pooling never changes a result.
    [[nodiscard]] campaign_result run() const { return run(run_hooks{}); }
    [[nodiscard]] campaign_result run(const run_hooks& hooks) const;

    [[nodiscard]] const campaign_config& config() const { return config_; }

private:
    campaign_config config_;
};

/// Recombine per-shard results into one full-grid result that is
/// bit-identical (coverage matrix, yield/escape statistics, scenario rows,
/// timing-free exports) to running the whole grid unsharded.  The shards
/// must share the grid axes and together cover every scenario index exactly
/// once; otherwise contract_violation.  Shard order does not matter.
/// Measured fields are combined conservatively: wall times and cache
/// counters sum, `threads_used` takes the maximum.
campaign_result merge_results(const std::vector<campaign_result>& shards);

/// What the lenient merge dropped or papered over (all zero on clean
/// input).  `notes` holds one human-readable line per incident.
struct salvage_stats {
    std::size_t quarantined_files = 0; ///< unreadable files moved aside
    std::size_t skipped_shards = 0;    ///< shards with mismatched axes
    std::size_t duplicate_rows = 0;    ///< conflicting rows dropped
    std::size_t missing_rows = 0;      ///< grid rows no shard covered
    std::vector<std::string> notes;

    [[nodiscard]] bool clean() const {
        return quarantined_files == 0 && skipped_shards == 0 &&
               duplicate_rows == 0 && missing_rows == 0;
    }
};

/// Lenient variant of `merge_results` for salvaging partially-failed
/// distributed runs: shards with mismatched axes are skipped, duplicate
/// or out-of-range scenario rows are dropped (first shard wins), and
/// incomplete coverage yields a *partial* merged result
/// (`results.size() < grid_size`) instead of a contract violation.  Every
/// concession is counted in `stats`.  Still throws when `shards` is empty
/// or no shard is usable.
campaign_result merge_results_salvage(const std::vector<campaign_result>& shards,
                                      salvage_stats& stats);

} // namespace sdrbist::campaign
