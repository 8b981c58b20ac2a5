#include "campaign/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include <thread>

#include "bist/config_canonical.hpp"
#include "bist/pipeline.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/cache.hpp"
#include "campaign/journal.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/random.hpp"
#include "core/task_scheduler.hpp"
#include "core/telemetry.hpp"

namespace sdrbist::campaign {

namespace {

/// splitmix64 finaliser — the standard 64-bit mixing step.  Used to derive
/// scenario seeds from (master seed, grid coordinates) so the stream is a
/// pure function of the grid position, never of execution order.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t master, std::size_t preset_index,
                          std::size_t fault_index, std::size_t trial) {
    std::uint64_t h = mix64(master);
    h = mix64(h ^ (static_cast<std::uint64_t>(preset_index) + 1));
    h = mix64(h ^ (static_cast<std::uint64_t>(fault_index) + 1));
    h = mix64(h ^ (static_cast<std::uint64_t>(trial) + 1));
    return h;
}

/// Rebuild the coverage matrix and population statistics from the result
/// rows.  Shared by run() and merge_results() so a merged result goes
/// through the exact aggregation code path of an unsharded run — the
/// bit-identity guarantee is structural, not re-proven per release.
void aggregate(campaign_result& out) {
    out.matrix.assign(out.preset_names.size(),
                      std::vector<coverage_cell>(out.fault_names.size()));
    out.golden_runs = out.golden_passes = 0;
    out.fault_runs = out.fault_detected = 0;
    out.scenario_cpu_s = 0.0;
    out.scenario_retries = out.scenario_gave_up = 0;
    for (const auto& r : out.results) {
        SDRBIST_EXPECTS(r.sc.preset_index < out.preset_names.size());
        SDRBIST_EXPECTS(r.sc.fault_index < out.fault_names.size());
        coverage_cell& cell = out.matrix[r.sc.preset_index][r.sc.fault_index];
        ++cell.runs;
        if (r.flagged())
            ++cell.flagged;
        if (r.sc.fault == bist::fault_kind::none) {
            ++out.golden_runs;
            if (!r.flagged())
                ++out.golden_passes;
        } else {
            ++out.fault_runs;
            if (r.flagged())
                ++out.fault_detected;
        }
        out.scenario_cpu_s += r.elapsed_s;
        if (r.attempts > 1)
            out.scenario_retries += r.attempts - 1;
        if (r.gave_up)
            ++out.scenario_gave_up;
    }
}

// ---------------------------------------------------------------------------
// Stage pool: planned cross-scenario sharing of pipeline-stage results.
//
// The runner's plan pass looks every pending scenario up in the scenario
// result cache and computes the stage input digests of the rows the cache
// did not serve; the pool keeps one slot per (level, digest) that has MORE
// than one such consumer.  Cache-served rows never touch the pool, so a
// warm run does no stage work.  A slot holds a donor session whose stages
// are complete through that level.  The task-DAG schedule fills the
// slots: a dedicated owner node per slot adopts the level above's donor,
// runs its own stage, and publishes the session (or the exception it
// threw) before any consumer runs (graph dependency), so consumers `peek`
// the finished donor without ever blocking.  The lowest-indexed consumer
// of each slot is *credited* when the plan is made: its adoption stands
// in for the compute in the reuse accounting, so adopted/computed totals
// stay a pure function of the grid and the cache contents, independent of
// thread count.
//
// With a stage-artefact store configured, the owner's run consults the
// store for its own stage first — a hit adopts the decoded snapshot and
// still counts as the slot's one compute, so the reuse accounting is
// identical with the store cold, warm, or disabled.
//
// Every consumer releases its claim when its scenario finishes, and the
// slot is freed with the last release, so retained memory is bounded by
// the overlap that is still live.
// ---------------------------------------------------------------------------

/// The shareable prefix of the pipeline (grading is always terminal).
constexpr std::array<bist::stage, 4> shareable_stages{
    bist::stage::stimulus, bist::stage::tx_capture,
    bist::stage::calibration, bist::stage::reconstruction};
constexpr int shareable_levels = static_cast<int>(shareable_stages.size());

using donor_session = std::shared_ptr<const bist::bist_session>;

class stage_slot_map {
public:
    /// Plan phase (single-threaded): register one expected consumer.
    void expect(std::uint64_t digest, std::size_t consumer) {
        plan& p = expected_[digest];
        ++p.consumers;
        p.credited = std::min(p.credited, consumer);
    }

    /// End of plan phase: digests with a single consumer are dropped —
    /// they would cost retention without ever being reused.
    void finalise_plan() {
        for (auto it = expected_.begin(); it != expected_.end();) {
            if (it->second.consumers < 2) {
                it = expected_.erase(it);
            } else {
                slots_[it->first].remaining = it->second.consumers;
                ++it;
            }
        }
    }

    /// True when this digest is pooled (read-only after finalise_plan, so
    /// safe to query concurrently).
    [[nodiscard]] bool pooled(std::uint64_t digest) const {
        return expected_.find(digest) != expected_.end();
    }

    /// Owner node: run `compute` and publish its donor (or the exception
    /// it threw) exactly once, before any consumer peeks.  Returns true
    /// when a donor was published — the slot's one compute; a failure
    /// (consumers rethrow it on attempt 1) is not one.
    template <typename Fn>
    bool publish(std::uint64_t digest, Fn&& compute) {
        donor_session value;
        std::exception_ptr error;
        try {
            value = compute();
        } catch (...) {
            error = std::current_exception();
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(digest);
        // The slot cannot be erased while its consumers' nodes — all
        // graph-ordered after this one — still hold claims.
        SDRBIST_EXPECTS(it != slots_.end());
        it->second.value = value;
        it->second.error = error;
        it->second.done = true;
        return !error;
    }

    /// A published slot as its consumers see it: a donor or the owner's
    /// exception, never neither.  `credited` is the slot's lowest planned
    /// consumer.
    struct published_view {
        donor_session value;
        std::exception_ptr error;
        std::size_t credited = std::numeric_limits<std::size_t>::max();
    };

    /// Consumer-side read of a published slot; the graph guarantees the
    /// owner node already ran.
    [[nodiscard]] published_view peek(std::uint64_t digest) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(digest);
        SDRBIST_EXPECTS(it != slots_.end());
        SDRBIST_EXPECTS(it->second.done);
        return {it->second.value, it->second.error,
                expected_.at(digest).credited};
    }

    /// One consumer is done with this digest; frees the slot on the last
    /// release.  No-op for digests that were never pooled.
    void release(std::uint64_t digest) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(digest);
        if (it == slots_.end())
            return;
        if (--it->second.remaining == 0)
            slots_.erase(it);
    }

private:
    struct plan {
        std::size_t consumers = 0;
        /// Lowest planned consumer: its adoption books no `stage.adopts`,
        /// standing in for the compute the owner node books.
        std::size_t credited = std::numeric_limits<std::size_t>::max();
    };
    struct slot {
        std::size_t remaining = 0;
        bool done = false;
        donor_session value;
        std::exception_ptr error;
    };
    std::mutex mutex_;
    std::unordered_map<std::uint64_t, plan> expected_;
    std::unordered_map<std::uint64_t, slot> slots_;
};

/// Per-scenario digests of the shareable prefix.
using stage_digests = std::array<std::uint64_t, shareable_stages.size()>;

struct stage_pool {
    /// One slot map per shareable prefix level.
    std::array<stage_slot_map, shareable_stages.size()> levels;

    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> computes{0};

    void expect(const stage_digests& d, std::size_t consumer) {
        for (std::size_t k = 0; k < levels.size(); ++k)
            levels[k].expect(d[k], consumer);
    }
    void finalise_plan() {
        for (auto& slots : levels)
            slots.finalise_plan();
    }
    /// Deepest pooled prefix level of `d` (-1 = none).  The prefix-digest
    /// chain makes consumer sets monotone along the pipeline, so pooling
    /// always covers a contiguous prefix.
    [[nodiscard]] int deepest_pooled(const stage_digests& d) const {
        int deepest = -1;
        for (std::size_t k = 0; k < levels.size() && levels[k].pooled(d[k]);
             ++k)
            deepest = static_cast<int>(k);
        return deepest;
    }
    void release(const stage_digests& d) {
        for (std::size_t k = 0; k < levels.size(); ++k)
            levels[k].release(d[k]);
    }
};

/// DAG owner node: compute pooled slot (`level`, `digests[level]`) on a
/// session built from the owning scenario's materialised config — any
/// consumer's would do, equal digests guarantee equal stage inputs — that
/// adopts the level above's published donor and runs this level's stage
/// through the store.  Publishes the session, or the exception (an
/// upstream owner's included: consumers rethrow it as their own attempt-1
/// failure, so the retry path stays per-scenario).
void run_owner_node(const bist::bist_config& owner_config,
                    const stage_digests& digests, int level,
                    stage_pool& pool, bist::stage_snapshot_store* store) {
    const auto k = static_cast<std::size_t>(level);
    const bool computed = pool.levels[k].publish(digests[k], [&] {
        auto session = std::make_shared<bist::bist_session>(owner_config);
        if (k > 0) {
            const auto up = pool.levels[k - 1].peek(digests[k - 1]);
            if (up.error)
                std::rethrow_exception(up.error);
            session->adopt_from(*up.value, shareable_stages[k - 1]);
        }
        session->run_until(shareable_stages[k], store);
        return donor_session(std::move(session));
    });
    if (computed) {
        pool.computes.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::counter::stage_computes);
    }
}

/// Run one scenario's pipeline under the dag schedule: every pooled
/// prefix slot was published by its owner node before this runs, so
/// adoption is a lock-peek, never a wait.  The walk over the pooled levels
/// books the reuse accounting and finds the deepest usable donor: attempt
/// 1 inherits a failed owner's exception; retries stop at the failed level
/// and compute privately instead (the slot is not re-armed — transient
/// faults stay per-attempt).  The credited consumer's adoption books no
/// `stage.adopts`: it stands in for the compute the owner node already
/// booked.  Stages below the adopted prefix go through the stage-artefact
/// store when one is attached.
bist::bist_report run_with_dag(const bist::bist_config& materialised,
                               const stage_digests& digests,
                               stage_pool& pool, std::size_t attempt,
                               std::size_t my_index,
                               bist::stage_snapshot_store* store) {
    bist::bist_session session(materialised);
    donor_session donor;
    std::size_t adopted = 0;
    for (; adopted < pool.levels.size() &&
           pool.levels[adopted].pooled(digests[adopted]);
         ++adopted) {
        const auto v = pool.levels[adopted].peek(digests[adopted]);
        if (v.error) {
            if (attempt <= 1)
                std::rethrow_exception(v.error);
            break;
        }
        if (v.credited != my_index) {
            pool.hits.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::counter::stage_adopts);
        }
        donor = v.value;
    }
    if (donor)
        session.adopt_from(*donor, shareable_stages[adopted - 1]);
    session.run_until(bist::stage::grading, store);
    return session.report();
}

/// What the plan pass derives for one pending row, exactly once.  The
/// pool plan, the scenario body, the cache store and the journal append
/// all read it.
struct row_plan {
    std::optional<bist::bist_config> config; ///< materialised engine config
    std::exception_ptr error; ///< what materialisation threw (no config)
    std::string key; ///< scenario key; "" without cache/journal or config
    /// The cache lookup ran.  It can throw (a transient I/O fault); the
    /// row then looks up again inside its own retry loop.
    bool looked_up = false;
    std::optional<scenario_result> outcome; ///< the cache's graded outcome
    /// Shareable-prefix digests; all zero for rows that plan no stage
    /// (served by the cache, or no config).
    stage_digests digests{};
};

} // namespace

std::vector<scenario> expand_grid(const campaign_config& cfg) {
    SDRBIST_EXPECTS(!cfg.presets.empty());
    SDRBIST_EXPECTS(!cfg.faults.empty());
    SDRBIST_EXPECTS(cfg.trials >= 1);

    std::vector<scenario> grid;
    grid.reserve(cfg.presets.size() * cfg.faults.size() * cfg.trials);
    std::size_t index = 0;
    for (std::size_t p = 0; p < cfg.presets.size(); ++p)
        for (std::size_t f = 0; f < cfg.faults.size(); ++f)
            for (std::size_t t = 0; t < cfg.trials; ++t) {
                scenario sc;
                sc.index = index++;
                sc.preset_index = p;
                sc.fault_index = f;
                sc.trial = t;
                sc.fault = cfg.faults[f];
                sc.preset_name = cfg.presets[p].name;
                sc.seed = derive_seed(cfg.seed, p, f, t);
                grid.push_back(std::move(sc));
            }
    return grid;
}

bist::bist_config scenario_config(const campaign_config& cfg,
                                  const scenario& sc) {
    SDRBIST_EXPECTS(sc.preset_index < cfg.presets.size());
    SDRBIST_EXPECTS(sc.fault_index < cfg.faults.size());

    bist::bist_config out = cfg.base;
    const auto& preset = cfg.presets[sc.preset_index];
    out.preset = preset;
    out.tx = bist::inject_fault(out.tx, sc.fault);

    switch (cfg.reseed) {
    case reseed_policy::device: {
        rng gen(sc.seed);
        out.tx.seed = gen.next_u64();
        out.tiadc.seed = gen.next_u64();
        out.probe_seed = gen.next_u64();
        // Device-population spread.  The gaussians are always drawn so the
        // seed stream does not depend on which perturbations are enabled.
        const double jitter_g = gen.gaussian();
        const double dcde_g = gen.gaussian();
        out.tiadc.jitter_rms_s *=
            std::exp(cfg.perturb.jitter_rel_sigma * jitter_g);
        out.tiadc.delay_element.static_error_s +=
            cfg.perturb.dcde_static_sigma_s * dcde_g;
        break;
    }
    case reseed_policy::probes: {
        // One fixed device, a fresh probe draw per trial.  The draw is a
        // block design: derived from (master seed, trial) only — every
        // preset and fault sees the *same* probe placements per trial, so
        // probe-draw variance never confounds cross-cell comparisons, and
        // the calibration stage stays shareable across the whole grid,
        // not just within one cell.
        rng gen(derive_seed(cfg.seed ^ 0x9E0BE5EEDull, 0, 0, sc.trial));
        out.probe_seed = gen.next_u64();
        break;
    }
    case reseed_policy::off:
        break;
    }

    // Keep the mask limits above what this capture hardware can measure
    // at the preset's carrier (paper §II-B3: jitter-induced wideband
    // noise bounds the observable floor).  Uses the *perturbed* jitter:
    // a noisier trial device also has a higher measurement floor.
    const double occupied = preset.stimulus.symbol_rate *
                            (1.0 + preset.stimulus.rolloff);
    const double floor = waveform::bist_measurement_floor_dbc(
        preset.default_carrier_hz, out.tiadc.jitter_rms_s, occupied,
        out.tiadc.channel_rate_hz);
    out.preset.mask = waveform::relax_to_measurement_floor(preset.mask, floor);
    return out;
}

campaign_runner::campaign_runner(campaign_config config)
    : config_(std::move(config)) {
    SDRBIST_EXPECTS(!config_.presets.empty());
    SDRBIST_EXPECTS(!config_.faults.empty());
    SDRBIST_EXPECTS(config_.trials >= 1);
    SDRBIST_EXPECTS(config_.shard.count >= 1);
    SDRBIST_EXPECTS(config_.shard.index < config_.shard.count);
    SDRBIST_EXPECTS(!config_.lease || config_.lease->begin <= config_.lease->end);
    SDRBIST_EXPECTS(config_.retry_backoff_ms >= 0.0);
    SDRBIST_EXPECTS(config_.scenario_deadline_s >= 0.0);
    SDRBIST_EXPECTS(!config_.resume || !config_.journal_path.empty());
}

campaign_result campaign_runner::run(const run_hooks& hooks) const {
    using clock = std::chrono::steady_clock;

    // Telemetry window baseline: the per-run summary attached to the
    // result is the delta over this run, so concurrent/earlier activity
    // in the process does not leak in (maxima stay process-lifetime:
    // they are not subtractable).
    const bool telemetry_on = telemetry::active();
    const telemetry::summary telemetry_base =
        telemetry_on ? telemetry::snapshot() : telemetry::summary{};

    const auto full_grid = expand_grid(config_);
    SDRBIST_EXPECTS(!config_.lease || config_.lease->end <= full_grid.size());
    std::vector<scenario> grid;
    if (config_.shard.count <= 1 && !config_.lease) {
        grid = full_grid;
    } else {
        for (const auto& sc : full_grid)
            if (config_.shard.contains(sc.index) &&
                (!config_.lease || config_.lease->contains(sc.index)))
                grid.push_back(sc);
    }

    campaign_result out;
    out.trials = config_.trials;
    out.seed = config_.seed;
    out.shard_index = config_.shard.index;
    out.shard_count = config_.shard.count;
    out.grid_size = full_grid.size();
    out.preset_names.reserve(config_.presets.size());
    for (const auto& p : config_.presets)
        out.preset_names.push_back(p.name);
    out.fault_names.reserve(config_.faults.size());
    for (const auto f : config_.faults)
        out.fault_names.push_back(bist::to_string(f));

    std::optional<scenario_cache> cache;
    if (!config_.cache_dir.empty())
        cache.emplace(config_.cache_dir);
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};

    // Stage-artefact store: persistent stage outputs keyed by input
    // digest.  Purely an execution knob — a hit swaps a compute for a
    // load of the bit-identical snapshot, so every export is byte-equal
    // with the store cold, warm, or disabled.
    std::optional<stage_artefact_store> store;
    if (!config_.stage_store_dir.empty())
        store.emplace(config_.stage_store_dir);
    bist::stage_snapshot_store* const store_ptr =
        store ? &*store : nullptr;

    out.results.resize(grid.size());

    // Crash-recovery journal.  On resume, rows whose content digest still
    // matches what this config derives are restored in place; everything
    // else (including gave-up / timed-out rows, which are never
    // journalled) is recomputed.  The journal writer truncates any torn
    // trailing line from the crash before appending.
    std::optional<campaign_journal> journal;
    std::vector<char> done(grid.size(), 0);
    std::size_t resumed_count = 0;
    if (!config_.journal_path.empty()) {
        const std::string identity = campaign_identity(config_);
        // Cold start: --resume against a journal that does not exist yet
        // has nothing to restore — fall through and create it fresh (the
        // service worker loop always passes resume, first run included).
        std::error_code journal_ec;
        if (config_.resume &&
            std::filesystem::exists(config_.journal_path, journal_ec)) {
            journal_replay replay =
                read_journal(config_.journal_path, identity);
            std::unordered_map<std::size_t, std::size_t> local;
            for (std::size_t i = 0; i < grid.size(); ++i)
                local.emplace(grid[i].index, i);
            for (auto& row : replay.rows) {
                const auto it = local.find(row.result.sc.index);
                if (it == local.end() || done[it->second])
                    continue;
                if (row.result.gave_up || row.result.timed_out)
                    continue; // environment-dependent verdicts: recompute
                bool valid = false;
                try {
                    valid = row.key ==
                            scenario_cache::key(
                                grid[it->second],
                                scenario_config(config_, grid[it->second]));
                } catch (const std::exception&) {
                    // The config is rejected deterministically; the
                    // journalled row must be the matching rejection (it
                    // could never compute a key either).
                    valid = row.key.empty() && row.result.engine_error;
                }
                if (!valid)
                    continue;
                scenario_result& slot = out.results[it->second];
                slot = std::move(row.result);
                slot.sc = grid[it->second];
                done[it->second] = 1;
                ++resumed_count;
            }
        }
        journal.emplace(config_.journal_path, identity, config_.resume);
        // Restored rows are final now — observers see them exactly like
        // freshly-graded ones (the JSONL stream re-emits every row).
        if (hooks.on_scenario)
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (done[i])
                    hooks.on_scenario(out.results[i]);
    }

    // Execute the rows the journal did not already cover: each job reads
    // the shared config and writes only its own grid-indexed slot, so
    // thread count cannot affect any result.
    std::vector<std::size_t> pending;
    pending.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (!done[i])
            pending.push_back(i);
    const auto wall_start = clock::now();
    if (!grid.empty()) {
        // Never spawn more workers than there are scenarios.  Report the
        // grid-sized width even when a resume leaves fewer rows pending,
        // so a resumed run's deterministic exports match the original's.
        const std::size_t requested =
            config_.threads ? config_.threads
                            : task_scheduler::default_thread_count();
        out.threads_used = std::min(requested, grid.size());
    }
    stage_pool shared;
    if (!pending.empty()) {
        const task_scheduler sched(std::min(out.threads_used, pending.size()));

        // Plan pass: materialise each pending row once, derive its
        // scenario key (when a cache or journal needs it), look it up, and
        // digest the shareable prefix of every row the cache did not
        // serve.  Only digests more than one such row needs are pooled.
        // A row whose materialisation throws plans nothing; its attempts
        // rethrow the identical error into its result slot.
        std::vector<row_plan> plans(grid.size());
        {
            const telemetry::scoped_span plan_span(
                telemetry::category::campaign, "campaign.plan");
            sched.parallel_for(pending.size(), [&](std::size_t pi) {
                const std::size_t i = pending[pi];
                row_plan& plan = plans[i];
                try {
                    plan.config = scenario_config(config_, grid[i]);
                    if (cache || journal)
                        plan.key = scenario_cache::key(grid[i], *plan.config);
                } catch (const std::exception&) {
                    plan.config.reset();
                    plan.error = std::current_exception();
                    return;
                }
                if (cache) {
                    try {
                        plan.outcome = cache->load(plan.key);
                        plan.looked_up = true;
                    } catch (const std::exception&) {
                        // `looked_up` stays false: the row retries it.
                    }
                }
                if (!plan.outcome)
                    for (std::size_t k = 0; k < shareable_stages.size(); ++k)
                        plan.digests[k] = bist::stage_input_digest(
                            *plan.config, shareable_stages[k]);
            });
            for (const std::size_t i : pending)
                if (plans[i].config && !plans[i].outcome)
                    shared.expect(plans[i].digests, i);
            shared.finalise_plan();
        }

        const auto scenario_body = [&](std::size_t i) {
            row_plan& plan = plans[i];
            scenario_result& slot = out.results[i];
            slot.sc = grid[i];
            // One span covers the whole scenario, retries and backoff
            // included — the span count per run stays one per scenario.
            const telemetry::scoped_span scenario_span(
                telemetry::category::scenario, "scenario", grid[i].index);
            const auto scenario_start = clock::now();
            bool hit = false;
            // Retry loop: transient failures re-run the attempt with
            // bounded deterministic backoff; contract violations are
            // deterministic rejections and break out immediately.
            for (std::size_t attempt = 1;; ++attempt) {
                slot.attempts = attempt;
                bool transient = false;
                const auto t0 = clock::now();
                // Only the planned config's outcome, the cache lookup and
                // the engine run belong in the try: a throwing observer
                // hook must propagate (and abort the campaign), never be
                // recorded as this scenario's engine error — that would
                // poison the cache entry.
                try {
                    fault_injection::fire(
                        fault_injection::site::pool_dispatch);
                    if (plan.error)
                        std::rethrow_exception(plan.error);
                    if (cache && !plan.looked_up) {
                        plan.outcome = cache->load(plan.key);
                        plan.looked_up = true;
                    }
                    if (plan.outcome) {
                        // Restore the graded outcome; `elapsed_s` keeps
                        // the original grading cost, not the lookup cost,
                        // so `scenario_cpu_s` still reports what the grid
                        // costs to compute.
                        slot.report = std::move(plan.outcome->report);
                        slot.engine_error = plan.outcome->engine_error;
                        slot.error = std::move(plan.outcome->error);
                        slot.elapsed_s = plan.outcome->elapsed_s;
                        hit = true;
                    } else {
                        // A retry starts clean: only the final attempt's
                        // outcome is this scenario's verdict.
                        slot.engine_error = false;
                        slot.error.clear();
                        slot.report = run_with_dag(*plan.config, plan.digests,
                                                   shared, attempt, i,
                                                   store_ptr);
                    }
                } catch (const contract_violation& e) {
                    // Deterministic config rejection: re-running
                    // reproduces it, so it is final (and safe to cache).
                    slot.engine_error = true;
                    slot.error = e.what();
                    telemetry::count(telemetry::counter::scenario_failures);
                } catch (const std::exception& e) {
                    // Possibly transient (resource exhaustion, I/O,
                    // injected fault): candidate for a retry.
                    slot.engine_error = true;
                    slot.error = e.what();
                    transient = true;
                    telemetry::count(telemetry::counter::scenario_failures);
                }
                if (!hit)
                    slot.elapsed_s =
                        std::chrono::duration<double>(clock::now() - t0)
                            .count();
                if (!hit && config_.scenario_deadline_s > 0.0 &&
                    std::chrono::duration<double>(clock::now() -
                                                  scenario_start)
                            .count() > config_.scenario_deadline_s) {
                    // Over budget — failed-timeout, campaign continues.
                    slot.timed_out = true;
                    slot.engine_error = true;
                    if (slot.error.empty())
                        slot.error = "scenario deadline exceeded";
                    break;
                }
                if (!transient)
                    break;
                if (attempt > config_.max_retries) {
                    slot.gave_up = true;
                    telemetry::count(telemetry::counter::scenario_gave_up);
                    break;
                }
                telemetry::count(telemetry::counter::scenario_retries);
                const double delay_ms =
                    config_.retry_backoff_ms *
                    static_cast<double>(
                        1ull << std::min<std::size_t>(attempt - 1, 20));
                slot.backoff_ms += delay_ms;
                if (delay_ms > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(delay_ms));
            }
            // Give up this scenario's claims on pooled stage results no
            // matter how it finished (error, success, or a hit on a retried
            // lookup): the last claim frees the slot.  No-op for rows that
            // planned no pooled stage.
            shared.release(plan.digests);
            // A gave-up or timed-out verdict is environment-dependent —
            // never persisted, so a rerun (or resume) re-attempts it.
            const bool deterministic = !slot.gave_up && !slot.timed_out;
            if (hit) {
                hits.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(telemetry::counter::cache_hits);
            } else if (cache) {
                misses.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(telemetry::counter::cache_misses);
                if (plan.config && deterministic)
                    cache->store(plan.key, slot);
            }
            // A rejected config is journalled with an empty key; resume
            // re-validates the same way.
            if (journal && deterministic)
                journal->append(plan.key, slot);
            if (hooks.on_scenario)
                hooks.on_scenario(slot);
        };

        // Emit the campaign as one task DAG: pooled stage owners launch
        // topologically first, scenarios adopt their published snapshots
        // without blocking, and work stealing overlaps independent
        // scenarios with pooled-prefix computes.  Owner nodes: one per
        // pooled slot, level by level; owner(k) depends on owner(k-1) of
        // the same prefix, so a slot is published before anything peeks
        // it.
        task_graph graph;
        std::array<std::unordered_map<std::uint64_t, std::size_t>,
                   shareable_stages.size()>
            owner_node;
        for (int k = 0; k < shareable_levels; ++k) {
            for (const std::size_t i : pending) {
                const stage_digests& digests = plans[i].digests;
                if (shared.deepest_pooled(digests) < k)
                    continue;
                const std::uint64_t d = digests[k];
                if (owner_node[k].count(d) != 0)
                    continue;
                std::vector<std::size_t> deps;
                if (k > 0)
                    deps.push_back(owner_node[k - 1].at(digests[k - 1]));
                // `i` is the lowest pooled consumer: the owner binds to its
                // config (any consumer's is digest-equal).
                owner_node[k][d] = graph.add(
                    [&, i, k] {
                        run_owner_node(*plans[i].config, plans[i].digests, k,
                                       shared, store_ptr);
                    },
                    deps);
            }
        }
        // Scenario nodes: a scenario waits only on the owner of its
        // deepest pooled slot; the owner chain orders the rest.  Served
        // and un-pooled rows are dependency-free.
        for (const std::size_t i : pending) {
            const stage_digests& digests = plans[i].digests;
            const int deepest = shared.deepest_pooled(digests);
            std::vector<std::size_t> deps;
            if (deepest >= 0)
                deps.push_back(owner_node[static_cast<std::size_t>(deepest)].at(
                    digests[static_cast<std::size_t>(deepest)]));
            graph.add([&, i] { scenario_body(i); }, deps);
        }
        sched.run(std::move(graph));
    }
    out.wall_s =
        std::chrono::duration<double>(clock::now() - wall_start).count();
    out.cache_hits = hits.load();
    out.cache_misses = misses.load();
    out.resumed = resumed_count;
    out.quarantined = cache ? cache->quarantined() : 0;
    out.stage_reuse_hits = shared.hits.load();
    out.stage_reuse_computes = shared.computes.load();
    if (store) {
        out.store_hits = store->hits();
        out.store_misses = store->misses();
        out.store_bytes = store->bytes_served();
        out.quarantined += store->quarantined();
    }
    if (telemetry_on)
        out.telemetry_summary = telemetry::since(telemetry_base);

    // Aggregate in grid order (deterministic regardless of completion order).
    aggregate(out);
    return out;
}

namespace {

/// Shared core of the strict and salvage merges.  `salvage == nullptr`
/// keeps the historical contract (any inconsistency throws);  otherwise
/// inconsistencies are dropped, counted and noted, and incomplete
/// coverage yields a partial result.
campaign_result merge_impl(const std::vector<campaign_result>& shards,
                           salvage_stats* salvage) {
    const telemetry::scoped_span span(telemetry::category::shard,
                                      "shard.merge");
    fault_injection::fire(fault_injection::site::shard_merge);
    SDRBIST_EXPECTS(!shards.empty());
    const campaign_result& first = shards.front();

    campaign_result out;
    out.preset_names = first.preset_names;
    out.fault_names = first.fault_names;
    out.trials = first.trials;
    out.seed = first.seed;
    out.shard_index = 0;
    out.shard_count = 1;
    out.grid_size = first.grid_size;

    std::size_t total_rows = 0;
    std::vector<const campaign_result*> usable;
    usable.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const campaign_result& shard = shards[s];
        // Every shard must describe the same campaign.
        if (salvage == nullptr) {
            SDRBIST_EXPECTS(shard.preset_names == out.preset_names);
            SDRBIST_EXPECTS(shard.fault_names == out.fault_names);
            SDRBIST_EXPECTS(shard.trials == out.trials);
            SDRBIST_EXPECTS(shard.seed == out.seed);
            SDRBIST_EXPECTS(shard.grid_size == out.grid_size);
        } else if (shard.preset_names != out.preset_names ||
                   shard.fault_names != out.fault_names ||
                   shard.trials != out.trials || shard.seed != out.seed ||
                   shard.grid_size != out.grid_size) {
            ++salvage->skipped_shards;
            salvage->notes.push_back("skipped shard " + std::to_string(s) +
                                     ": campaign axes do not match shard 0");
            continue;
        }
        usable.push_back(&shard);
        total_rows += shard.results.size();
        // Measured fields combine conservatively: the merged wall time is
        // the sequential-equivalent sum (shards may have run anywhere).
        out.wall_s += shard.wall_s;
        out.threads_used = std::max(out.threads_used, shard.threads_used);
        out.cache_hits += shard.cache_hits;
        out.cache_misses += shard.cache_misses;
        out.stage_reuse_hits += shard.stage_reuse_hits;
        out.stage_reuse_computes += shard.stage_reuse_computes;
        out.store_hits += shard.store_hits;
        out.store_misses += shard.store_misses;
        out.store_bytes += shard.store_bytes;
        out.resumed += shard.resumed;
        out.quarantined += shard.quarantined;
        out.telemetry_summary.merge_from(shard.telemetry_summary);
    }
    if (salvage == nullptr)
        SDRBIST_EXPECTS(total_rows == out.grid_size);

    // Scatter rows back into grid order; duplicate or out-of-range indices
    // mean two shards graded the same scenario — contract violations on
    // the strict path, dropped (first shard wins) when salvaging.
    out.results.resize(out.grid_size);
    std::vector<bool> filled(out.grid_size, false);
    std::size_t filled_count = 0;
    for (const campaign_result* shard : usable)
        for (const auto& r : shard->results) {
            if (salvage == nullptr) {
                SDRBIST_EXPECTS(r.sc.index < out.grid_size);
                SDRBIST_EXPECTS(!filled[r.sc.index]);
            } else if (r.sc.index >= out.grid_size || filled[r.sc.index]) {
                ++salvage->duplicate_rows;
                salvage->notes.push_back(
                    r.sc.index >= out.grid_size
                        ? "dropped out-of-range scenario row " +
                              std::to_string(r.sc.index)
                        : "dropped duplicate scenario row " +
                              std::to_string(r.sc.index));
                continue;
            }
            filled[r.sc.index] = true;
            ++filled_count;
            out.results[r.sc.index] = r;
        }
    if (salvage != nullptr && filled_count < out.grid_size) {
        salvage->missing_rows = out.grid_size - filled_count;
        std::vector<scenario_result> partial;
        partial.reserve(filled_count);
        for (std::size_t i = 0; i < out.grid_size; ++i)
            if (filled[i])
                partial.push_back(std::move(out.results[i]));
        out.results = std::move(partial);
    }

    aggregate(out);
    return out;
}

} // namespace

campaign_result merge_results(const std::vector<campaign_result>& shards) {
    return merge_impl(shards, nullptr);
}

campaign_result merge_results_salvage(const std::vector<campaign_result>& shards,
                                      salvage_stats& stats) {
    // Shard 0 is the axis reference, so at least one shard always merges;
    // unreadable *files* never get this far (read_result_files_salvage
    // quarantines them).
    return merge_impl(shards, &stats);
}

} // namespace sdrbist::campaign
