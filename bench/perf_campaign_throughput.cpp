/// \file perf_campaign_throughput.cpp
/// \brief Campaign throughput scaling: scenarios/second at 1, 4 and
///        hardware-concurrency worker threads on a 32-scenario pooled
///        grid, plus warm-vs-cold result-cache and stage-artefact-store
///        throughput on repeated grids.
///
/// Every configuration runs the identical grid (same master seed), so this
/// also smoke-checks the determinism contract while measuring scaling: all
/// thread counts must export byte-identical timing-free artefacts and
/// identical stage-reuse accounting.  On hosts with >= 4 hardware threads
/// the dag schedule must reach >= 3x at 4 threads.  Every check runs: a
/// failed one prints a `... VIOLATION:` line, the bench carries on through
/// every section, and the exit code is 1 if any check failed.
/// Machine-readable results are printed as `BENCH_JSON {...}` lines (see
/// bench_util.hpp).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"
#include "core/fault_injection.hpp"
#include "core/table.hpp"
#include "core/telemetry.hpp"
#include "core/task_scheduler.hpp"

namespace {

/// Share of the workers' wall time the telemetry spans account for: the
/// stage, cache and idle spans together should cover nearly all of
/// `threads x wall` (the rest is per-scenario glue).
double span_coverage(const sdrbist::campaign::campaign_result& result) {
    using sdrbist::telemetry::category;
    const auto& s = result.telemetry_summary;
    const double covered_ns =
        static_cast<double>(s.of(category::stage_stimulus).total_ns +
                            s.of(category::stage_tx_capture).total_ns +
                            s.of(category::stage_calibration).total_ns +
                            s.of(category::stage_reconstruction).total_ns +
                            s.of(category::stage_grading).total_ns +
                            s.of(category::cache).total_ns +
                            s.of(category::idle).total_ns);
    const double budget_ns = static_cast<double>(result.threads_used) *
                             result.wall_s * 1e9;
    return budget_ns > 0.0 ? covered_ns / budget_ns : 0.0;
}

} // namespace

int main() {
    using namespace sdrbist;

    // Counter/aggregate collection on for the whole bench (it is what the
    // per-stage breakdowns below read); trace buffering only in the
    // dedicated overhead section.
    telemetry::enable(/*capture_trace=*/false);

    // A failed check prints its line and the bench goes on, so every
    // section still runs and emits its record; the exit code reports them.
    std::size_t violations = 0;
    const auto violation = [&](const char* check) -> std::ostream& {
        ++violations;
        return std::cerr << check << " VIOLATION: ";
    };

    // A 32-scenario grid with a pooled stage prefix: `reseed_policy::probes`
    // keeps the device fixed across probe-draw trials, so scenarios share
    // their stimulus and Tx-capture stages.  That is exactly the shape that
    // pinned the retired fixed-queue pool near 1x — co-consumers parked on
    // the owner's shared_future — and the shape the dag schedule exists
    // for: pooled owners run as graph nodes, consumers adopt the finished
    // snapshot without ever blocking.
    campaign::campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M"),
                   waveform::find_preset("tactical-bpsk-2M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 8;
    cfg.reseed = campaign::reseed_policy::probes;
    cfg.seed = 0xCA59A16Dull;

    const std::size_t hw = task_scheduler::default_thread_count();
    std::vector<std::size_t> thread_counts = {1, 4, hw};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());

    std::cout << "campaign throughput: "
              << cfg.presets.size() * cfg.faults.size() * cfg.trials
              << " scenarios per run, hardware concurrency = " << hw
              << "\n\n";

    text_table table({"threads", "wall [s]", "scenarios/s", "speedup",
                      "efficiency [%]", "coverage"});
    std::string baseline_json;
    double dag_speedup_at_4t = 0.0;
    double baseline_rate = 0.0;
    std::pair<std::size_t, std::size_t> baseline_reuse;
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        const std::size_t threads = thread_counts[ti];
        cfg.threads = threads;
        const auto before = telemetry::counters();
        const auto result = campaign::campaign_runner(cfg).run();
        const auto after = telemetry::counters();
        const auto delta = [&](telemetry::counter c) {
            return after[static_cast<std::size_t>(c)] -
                   before[static_cast<std::size_t>(c)];
        };

        // Determinism cross-check: every thread count must produce the
        // byte-identical timing-free export.
        campaign::export_options opt;
        opt.include_timing = false;
        const auto artefact = campaign::to_json(result, opt);
        if (baseline_json.empty())
            baseline_json = artefact;
        else if (artefact != baseline_json) {
            violation("DETERMINISM")
                << "results differ at " << threads << " threads\n";
        }

        // Counter≡result exactness: the credited-consumer rule books the
        // same stage-pool accounting at every thread count.
        const auto reuse = std::make_pair(result.stage_reuse_hits,
                                          result.stage_reuse_computes);
        if (ti == 0)
            baseline_reuse = reuse;
        else if (reuse != baseline_reuse) {
            violation("SCHEDULER")
                << "reuse accounting " << reuse.first << "/" << reuse.second
                << " differs from single-threaded " << baseline_reuse.first
                << "/" << baseline_reuse.second << " at " << threads
                << " threads\n";
        }

        const double rate = result.scenarios_per_second();
        if (ti == 0)
            baseline_rate = rate;
        const double speedup = rate / baseline_rate;
        if (threads == 4)
            dag_speedup_at_4t = speedup;
        table.add_row(
            {std::to_string(threads), text_table::num(result.wall_s, 2),
             text_table::num(rate, 3), text_table::num(speedup, 2),
             text_table::num(
                 100.0 * speedup / static_cast<double>(threads), 0),
             text_table::num(100.0 * result.coverage(), 0) + "%"});

        benchutil::json_record rec;
        rec.add("threads", threads);
        rec.add("scenarios", result.scenario_count());
        rec.add("wall_s", result.wall_s);
        rec.add("scenarios_per_sec", rate);
        rec.add("speedup_vs_1t", speedup);
        rec.add("coverage", result.coverage());
        rec.add("yield", result.yield());
        rec.add("stage_hits", result.stage_reuse_hits);
        rec.add("stage_computes", result.stage_reuse_computes);
        rec.add("sched_spawns", delta(telemetry::counter::sched_spawns));
        rec.add("sched_steals", delta(telemetry::counter::sched_steals));
        // Where the time went: per-stage mean span cost for this run.
        using telemetry::category;
        const auto& ts = result.telemetry_summary;
        rec.add("stimulus_mean_ns",
                ts.of(category::stage_stimulus).mean_ns());
        rec.add("tx_capture_mean_ns",
                ts.of(category::stage_tx_capture).mean_ns());
        rec.add("calibration_mean_ns",
                ts.of(category::stage_calibration).mean_ns());
        rec.add("reconstruction_mean_ns",
                ts.of(category::stage_reconstruction).mean_ns());
        rec.add("grading_mean_ns", ts.of(category::stage_grading).mean_ns());
        benchutil::emit_bench_json("campaign_throughput", rec);
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nnote: scenarios are independent engine runs; speedup is "
                 "bounded by physical cores (this host: " << hw << ")\n";

    // The whole point of the dag schedule: pooled grids must scale.  Only
    // meaningful where 4 workers can actually run in parallel.
    if (hw >= 4) {
        if (dag_speedup_at_4t < 3.0) {
            violation("THROUGHPUT")
                << "dag schedule reached only "
                << text_table::num(dag_speedup_at_4t, 2)
                << "x at 4 threads (< 3x)\n";
        }
    } else {
        std::cout << "note: host has < 4 hardware threads; the 3x-at-4-"
                     "threads gate is skipped\n";
    }

    // ---- warm-vs-cold result cache on a repeated grid --------------------
    // A regrade (CI rerun, regression sweep) of an already-graded grid
    // should be dominated by cache loads, not engine runs.  The warm run
    // must be bit-identical to the cold one and dramatically faster.
    const std::filesystem::path cache_dir = "bench_campaign_cache.tmp";
    std::filesystem::remove_all(cache_dir);
    cfg.threads = hw;
    cfg.cache_dir = cache_dir.string();

    const auto cold = campaign::campaign_runner(cfg).run();
    const auto warm = campaign::campaign_runner(cfg).run();
    std::filesystem::remove_all(cache_dir);

    campaign::export_options opt;
    opt.include_timing = false;
    if (campaign::to_json(warm, opt) != baseline_json) {
        violation("CACHE") << "warm run is not bit-identical\n";
    }
    if (warm.cache_hits != warm.scenario_count() || warm.cache_misses != 0) {
        violation("CACHE") << "warm run expected " << warm.scenario_count()
                           << " hits, got " << warm.cache_hits << " hits / "
                           << warm.cache_misses << " misses\n";
    }

    const double warm_speedup = cold.wall_s / warm.wall_s;
    std::cout << "\nresult cache (" << cold.scenario_count()
              << " scenarios): cold " << text_table::num(cold.wall_s, 3)
              << " s -> warm " << text_table::num(warm.wall_s, 3) << " s  ("
              << text_table::num(warm_speedup, 1) << "x, "
              << warm.cache_hits << " hits)\n";

    benchutil::json_record cache_rec;
    cache_rec.add("scenarios", cold.scenario_count());
    cache_rec.add("cold_wall_s", cold.wall_s);
    cache_rec.add("warm_wall_s", warm.wall_s);
    cache_rec.add("warm_speedup", warm_speedup);
    cache_rec.add("cache_hits", warm.cache_hits);
    benchutil::emit_bench_json("campaign_cache_warm", cache_rec);

    // Loading ~KB JSON entries is orders of magnitude cheaper than engine
    // runs; anything below 5x means the cache is broken, not merely slow.
    if (warm_speedup < 5.0) {
        violation("CACHE") << "warm speedup "
                           << text_table::num(warm_speedup, 2) << "x < 5x\n";
    }

    // ---- stage-shared pipelines on an overlapping grid -------------------
    // A guard-banding study, the campaign shape the staged pipeline's
    // cross-scenario sharing exists for: one standard graded against three
    // candidate emission masks, Monte-Carlo over the paper's random probe
    // draws (`reseed_policy::probes` — one fixed device, fresh probe
    // placements per trial).  Only the grading stage differs across the
    // mask variants and only calibration-and-later differs across trials,
    // so the runner's planned stage pool computes the stimulus and Tx
    // captures once and each trial's calibration/reconstruction once,
    // instead of per scenario.  The sharing-free baseline grades the same
    // grid as one-row shards (shard k of N holds row k alone, so no shard
    // has anything to pool), `hw` shards at a time, merged back into one
    // result.  The pooled run must be bit-identical to it and
    // substantially faster.
    campaign::campaign_config reuse_cfg;
    reuse_cfg.base.tiadc.quant.full_scale = 2.0;
    reuse_cfg.base.min_output_rms = 1.2;
    {
        const auto preset = waveform::find_preset("paper-qpsk-10M");
        auto strict = preset;
        strict.name = "paper-qpsk-10M/strict";
        strict.mask = waveform::make_strict_mask(
            preset.stimulus.symbol_rate, preset.stimulus.rolloff);
        auto wide_acpr = preset;
        wide_acpr.name = "paper-qpsk-10M/wide-acpr";
        wide_acpr.acpr_offset_hz = 2.2 * preset.stimulus.symbol_rate;
        reuse_cfg.presets = {preset, strict, wide_acpr};
    }
    reuse_cfg.faults = {bist::fault_kind::none};
    reuse_cfg.trials = 4;
    reuse_cfg.reseed = campaign::reseed_policy::probes;
    reuse_cfg.seed = 0xCA59A16Dull;
    reuse_cfg.threads = hw;

    const std::size_t reuse_rows = campaign::expand_grid(reuse_cfg).size();
    std::vector<campaign::campaign_result> row_shards(reuse_rows);
    const auto unshared_start = std::chrono::steady_clock::now();
    task_scheduler(hw).parallel_for(reuse_rows, [&](std::size_t k) {
        campaign::campaign_config one = reuse_cfg;
        one.shard = {k, reuse_rows};
        one.threads = 1;
        row_shards[k] = campaign::campaign_runner(one).run();
    });
    const double unshared_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      unshared_start)
            .count();
    const auto unshared = campaign::merge_results(row_shards);
    const auto shared = campaign::campaign_runner(reuse_cfg).run();

    if (campaign::to_json(shared, opt) != campaign::to_json(unshared, opt)) {
        violation("STAGE-REUSE") << "shared run is not bit-identical\n";
    }
    if (shared.stage_reuse_hits == 0) {
        violation("STAGE-REUSE") << "pool never hit\n";
    }

    const double reuse_speedup = unshared_wall_s / shared.wall_s;
    std::cout << "\nstage reuse (" << shared.scenario_count()
              << " scenarios, 3 masks x " << reuse_cfg.trials
              << " probe draws): no-reuse "
              << text_table::num(unshared_wall_s, 3) << " s -> shared "
              << text_table::num(shared.wall_s, 3) << " s  ("
              << text_table::num(reuse_speedup, 2) << "x, "
              << shared.stage_reuse_hits << " adopted / "
              << shared.stage_reuse_computes << " computed)\n";

    benchutil::json_record reuse_rec;
    reuse_rec.add("scenarios", shared.scenario_count());
    reuse_rec.add("trials", reuse_cfg.trials);
    reuse_rec.add("no_reuse_wall_s", unshared_wall_s);
    reuse_rec.add("reuse_wall_s", shared.wall_s);
    reuse_rec.add("speedup", reuse_speedup);
    reuse_rec.add("stage_hits", shared.stage_reuse_hits);
    reuse_rec.add("stage_computes", shared.stage_reuse_computes);
    benchutil::emit_bench_json("campaign_stage_reuse", reuse_rec);

    // The pool removes ~10 of 12 calibration+reconstruction runs on this
    // grid; anything below 1.3x means sharing has stopped engaging.
    if (reuse_speedup < 1.3) {
        violation("STAGE-REUSE") << "speedup "
                                 << text_table::num(reuse_speedup, 2)
                                 << "x < 1.3x\n";
    }

    // ---- persistent stage-artefact store: warm over cold -----------------
    // Same guard-banding grid, now with a stage store: the cold run
    // computes every stage once and publishes the compressed snapshots;
    // the warm run adopts them all back (round-tripped through the byte
    // codec and the JSON stage codec), so no pipeline stage runs at all.
    // Both must be bit-identical to the store-disabled run — the store
    // only ever substitutes element-exact artefacts for computes.
    const std::filesystem::path store_dir = "bench_campaign_store.tmp";
    std::filesystem::remove_all(store_dir);
    campaign::campaign_config store_cfg = reuse_cfg;
    store_cfg.stage_store_dir = store_dir.string();

    const auto store_cold = campaign::campaign_runner(store_cfg).run();
    const auto store_warm = campaign::campaign_runner(store_cfg).run();
    std::filesystem::remove_all(store_dir);

    if (campaign::to_json(store_cold, opt) != campaign::to_json(shared, opt) ||
        campaign::to_json(store_warm, opt) != campaign::to_json(shared, opt)) {
        violation("STAGE-STORE") << "store-enabled run is not "
                                    "bit-identical to the store-disabled "
                                    "run\n";
    }
    if (store_warm.store_hits == 0 || store_warm.store_misses != 0) {
        violation("STAGE-STORE")
            << "warm run expected all hits, got " << store_warm.store_hits
            << " hits / " << store_warm.store_misses << " misses\n";
    }

    const double store_speedup = store_cold.wall_s / store_warm.wall_s;
    std::cout << "\nstage store (" << store_warm.scenario_count()
              << " scenarios): cold "
              << text_table::num(store_cold.wall_s, 3) << " s -> warm "
              << text_table::num(store_warm.wall_s, 3) << " s  ("
              << text_table::num(store_speedup, 2) << "x, "
              << store_warm.store_hits << " hits, "
              << store_warm.store_bytes << " bytes served)\n";

    benchutil::json_record store_rec;
    store_rec.add("scenarios", store_warm.scenario_count());
    store_rec.add("cold_wall_s", store_cold.wall_s);
    store_rec.add("warm_wall_s", store_warm.wall_s);
    store_rec.add("warm_speedup", store_speedup);
    store_rec.add("store_hits", store_warm.store_hits);
    store_rec.add("store_bytes",
                  static_cast<std::size_t>(store_warm.store_bytes));
    benchutil::emit_bench_json("campaign_stage_store", store_rec);

    // Decompress-and-decode is far cheaper than the pipeline stages it
    // replaces; below 2x the store has stopped engaging.
    if (store_speedup < 2.0) {
        violation("STAGE-STORE") << "warm speedup "
                                 << text_table::num(store_speedup, 2)
                                 << "x < 2x\n";
    }

    // ---- trace-capture overhead ------------------------------------------
    // The telemetry contract: tracing must never change the results and
    // should cost low single-digit percent.  Re-run the throughput grid
    // fully untraced, then with trace-event capture, compare artefacts and
    // measure the wall-time delta.  The overhead is reported, not asserted
    // (a loaded CI host produces wall-time noise of the same magnitude).
    campaign::campaign_config trace_cfg = cfg;
    trace_cfg.cache_dir.clear();
    trace_cfg.threads = hw;

    telemetry::disable();
    const auto plain = campaign::campaign_runner(trace_cfg).run();
    telemetry::reset();
    telemetry::enable(/*capture_trace=*/true);
    const auto traced = campaign::campaign_runner(trace_cfg).run();
    const std::size_t trace_events = telemetry::trace_event_count();
    telemetry::disable();

    if (campaign::to_json(traced, opt) != campaign::to_json(plain, opt)) {
        violation("TRACE") << "traced run is not bit-identical\n";
    }

    const double overhead_pct =
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s;
    const double coverage = span_coverage(traced);
    std::cout << "\ntrace capture (" << traced.scenario_count()
              << " scenarios): untraced "
              << text_table::num(plain.wall_s, 3) << " s -> traced "
              << text_table::num(traced.wall_s, 3) << " s  ("
              << text_table::num(overhead_pct, 1) << "% overhead, "
              << trace_events << " events, span coverage "
              << text_table::num(100.0 * coverage, 1) << "%)\n";

    benchutil::json_record trace_rec;
    trace_rec.add("scenarios", traced.scenario_count());
    trace_rec.add("untraced_wall_s", plain.wall_s);
    trace_rec.add("traced_wall_s", traced.wall_s);
    trace_rec.add("overhead_pct", overhead_pct);
    trace_rec.add("trace_events", trace_events);
    trace_rec.add("span_coverage", coverage);
    benchutil::emit_bench_json("campaign_trace_overhead", trace_rec);

    // ---- fault-tolerance: containment and probe cost ---------------------
    // (a) Containment, hard-asserted: low-rate transient injection at
    // every registered site must retry its way to the exact artefacts of
    // the clean run above.  (b) Probe cost: the injection probes are
    // compiled into the hot paths permanently, so the disarmed cost is a
    // repeat-run wall delta — reported, and only sanity-bounded, because
    // a loaded CI host produces wall noise of the same magnitude (the
    // trace-overhead section above sets that precedent).  The two sides
    // run interleaved, three runs each, and the delta compares each side's
    // fastest run: a single pair of ~0.2 s runs is too short to resolve
    // 20% under transient host load.
    campaign::campaign_config fault_cfg = trace_cfg;
    fault_cfg.max_retries = 8;
    fault_cfg.retry_backoff_ms = 0.0;

    // The first run is also the clean reference of the containment check.
    const std::size_t disarmed_runs = 3;
    const auto disarmed_a = campaign::campaign_runner(fault_cfg).run();
    double disarmed_a_wall_s = disarmed_a.wall_s;
    double disarmed_b_wall_s =
        campaign::campaign_runner(fault_cfg).run().wall_s;
    for (std::size_t r = 1; r < disarmed_runs; ++r) {
        disarmed_a_wall_s =
            std::min(disarmed_a_wall_s,
                     campaign::campaign_runner(fault_cfg).run().wall_s);
        disarmed_b_wall_s =
            std::min(disarmed_b_wall_s,
                     campaign::campaign_runner(fault_cfg).run().wall_s);
    }

    fault_injection::arm("*:throw-transient:p=0.05,seed=3917");
    const auto faulted = campaign::campaign_runner(fault_cfg).run();
    fault_injection::disarm();

    if (campaign::to_json(faulted, opt) !=
        campaign::to_json(disarmed_a, opt)) {
        violation("FAULT-TOLERANCE")
            << "injected run is not bit-identical to the clean run\n";
    }
    if (faulted.scenario_gave_up != 0) {
        violation("FAULT-TOLERANCE")
            << faulted.scenario_gave_up
            << " scenarios gave up under p=0.05 with "
            << fault_cfg.max_retries << " retries\n";
    }

    const double disarmed_overhead_pct =
        100.0 * (disarmed_b_wall_s - disarmed_a_wall_s) / disarmed_a_wall_s;
    const double faulted_overhead_pct =
        100.0 * (faulted.wall_s - disarmed_a_wall_s) / disarmed_a_wall_s;
    std::cout << "\nfault tolerance (" << faulted.scenario_count()
              << " scenarios, p=0.05 at every site): "
              << faulted.scenario_retries << " retries, bit-identical ("
              << text_table::num(faulted_overhead_pct, 1)
              << "% slower); disarmed repeat delta "
              << text_table::num(disarmed_overhead_pct, 1) << "%\n";

    benchutil::json_record fault_rec;
    fault_rec.add("scenarios", faulted.scenario_count());
    fault_rec.add("clean_wall_s", disarmed_a_wall_s);
    fault_rec.add("disarmed_repeat_wall_s", disarmed_b_wall_s);
    fault_rec.add("disarmed_runs_per_side", disarmed_runs);
    fault_rec.add("disarmed_overhead_pct", disarmed_overhead_pct);
    fault_rec.add("faulted_wall_s", faulted.wall_s);
    fault_rec.add("faulted_overhead_pct", faulted_overhead_pct);
    fault_rec.add("retries", faulted.scenario_retries);
    benchutil::emit_bench_json("campaign_fault_tolerance", fault_rec);

    // Catastrophic-regression guard only (e.g. a disarmed probe growing a
    // lock); genuine sub-percent costs drown in scheduler noise here.
    if (disarmed_overhead_pct > 20.0) {
        violation("FAULT-PROBE")
            << "disarmed repeat delta "
            << text_table::num(disarmed_overhead_pct, 1) << "% > 20%\n";
    }

    // ---- distributed-service overhead ------------------------------------
    // Coordinator + two loopback workers on the same grid: the service's
    // framing, leasing and merge must stay bit-identical to the local run
    // (hard-asserted), and the wall-time cost of shipping every row and
    // lease result over TCP is reported as a trajectory number.
    campaign::service::service_config svc;
    svc.lease_size = 4;
    svc.heartbeat_s = 2.0;
    campaign::service::coordinator coord(trace_cfg, svc);
    svc.port = coord.port();
    // merge_results sums the per-lease wall times (worker compute), so
    // end-to-end distributed wall is measured around the whole session.
    const auto dist_t0 = std::chrono::steady_clock::now();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });
    auto worker_a = std::async(std::launch::async, [&] {
        return campaign::service::run_worker(trace_cfg, svc);
    });
    auto worker_b = std::async(std::launch::async, [&] {
        return campaign::service::run_worker(trace_cfg, svc);
    });
    worker_a.get();
    worker_b.get();
    const campaign::service::service_report dist = served.get();
    const double dist_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      dist_t0)
            .count();

    if (campaign::to_json(dist.result, opt) != campaign::to_json(plain, opt)) {
        violation("SERVICE")
            << "distributed run is not bit-identical to the local run\n";
    }

    const double service_overhead_pct =
        100.0 * (dist_wall_s - plain.wall_s) / plain.wall_s;
    std::cout << "\ndistributed service (" << dist.result.scenario_count()
              << " scenarios, 2 workers, lease size " << svc.lease_size
              << "): local " << text_table::num(plain.wall_s, 3)
              << " s -> distributed "
              << text_table::num(dist_wall_s, 3) << " s  ("
              << text_table::num(service_overhead_pct, 1) << "% overhead, "
              << dist.leases.leases << " leases, " << dist.leases.requeues
              << " re-queued)\n";

    benchutil::json_record svc_rec;
    svc_rec.add("scenarios", dist.result.scenario_count());
    svc_rec.add("local_wall_s", plain.wall_s);
    svc_rec.add("distributed_wall_s", dist_wall_s);
    svc_rec.add("overhead_pct", service_overhead_pct);
    svc_rec.add("leases", dist.leases.leases);
    svc_rec.add("requeues", dist.leases.requeues);
    svc_rec.add("workers", std::size_t{2});
    benchutil::emit_bench_json("campaign_service_overhead", svc_rec);

    if (violations > 0) {
        std::cerr << violations << " check(s) failed\n";
        return 1;
    }
    return 0;
}
