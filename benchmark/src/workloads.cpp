#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bist/config_canonical.hpp"
#include "bist/engine.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/telemetry.hpp"
#include "canary.hpp"
#include "layers.hpp"

extern char** environ;

namespace bench {

using namespace sdrbist;
namespace fs = std::filesystem;

namespace {

/// Compute threads of every campaign the benchmark runs (the leased grid
/// splits them over two workers).
constexpr std::size_t compute_threads = 4;
constexpr std::size_t service_workers = 2;
/// Set-up samples per untraced run, each from a process start; `setup_s`
/// is their median.
constexpr std::size_t setup_samples = 3;
/// Seeds with recorded reference verdicts: the default and a held-out one.
/// A run at either fails when its reference file is missing.
constexpr std::array<std::uint64_t, 2> referenced_seeds = {11, 29};

// ---------------------------------------------------------------------------
// Grids.  The library only ever sees these generated configs.
// ---------------------------------------------------------------------------

campaign::campaign_config base_grid(std::uint64_t seed) {
    campaign::campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2; // PA-health floor so gain faults count
    cfg.seed = seed;
    cfg.threads = compute_threads;
    return cfg;
}

/// The whole catalogue × every fault × one device-reseeded trial.  Costliest
/// preset first, so the cheap rows fill the tail instead of one dqpsk-1M
/// row running alone at the end.
campaign::campaign_config fault_grid(std::uint64_t seed) {
    auto cfg = base_grid(seed);
    cfg.presets.clear();
    for (const char* name : {"dqpsk-1M", "psk8-5M", "tactical-bpsk-2M",
                             "qam64-15M", "qam16-10M", "paper-qpsk-10M"})
        cfg.presets.push_back(waveform::find_preset(name));
    cfg.faults = bist::fault_catalogue();
    cfg.trials = 1;
    cfg.reseed = campaign::reseed_policy::device;
    return cfg;
}

constexpr const char* strict_suffix = "/strict";

/// A probe-reseeded guard-band grid over four presets.  With `strict_half`
/// the last two carry a tightened mask under a variant name: their stage
/// digests up to reconstruction are unchanged, their grading is not.
campaign::campaign_config guard_band_grid(std::uint64_t seed,
                                          bool strict_half) {
    auto cfg = base_grid(seed);
    cfg.presets.clear();
    const std::array<const char*, 4> names = {
        "paper-qpsk-10M", "qam16-10M", "qam64-15M", "tactical-bpsk-2M"};
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto preset = waveform::find_preset(names[i]);
        if (strict_half && i >= names.size() / 2) {
            preset.name += strict_suffix;
            preset.mask = waveform::make_strict_mask(
                preset.stimulus.symbol_rate, preset.stimulus.rolloff);
        }
        cfg.presets.push_back(preset);
    }
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop,
                  bist::fault_kind::iq_imbalance};
    cfg.trials = 2;
    cfg.reseed = campaign::reseed_policy::probes;
    return cfg;
}

bool is_strict(const campaign::scenario& sc) {
    return sc.preset_name.ends_with(strict_suffix);
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::string timing_free_export(const campaign::campaign_result& r) {
    campaign::export_options opt;
    opt.include_timing = false;
    return campaign::to_json(r, opt);
}

std::string verdict(const bist::bist_report& r) {
    std::string v = r.pass() ? "PASS" : "FAIL";
    v += r.mask.pass ? " mask" : " !mask";
    v += r.evm_pass ? " evm" : " !evm";
    v += r.acpr_pass ? " acpr" : " !acpr";
    v += r.power_pass ? " power" : " !power";
    return v;
}

std::string verdict(const campaign::scenario_result& r) {
    return r.engine_error ? "ERROR" : verdict(r.report);
}

bool errored(const campaign::scenario_result& r) {
    return r.engine_error || r.gave_up || r.timed_out;
}

std::uint64_t counter_now(telemetry::counter c) {
    return telemetry::counters()[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------------
// Run context: metric sinks, the exact-count check, set-up timing.
// ---------------------------------------------------------------------------

class context {
public:
    context(const options& o, span_recorder& r) : opt(o), rec(r) {}

    const options& opt;
    span_recorder& rec;
    outcome out;

    void fail(const std::string& what) { out.gate_failures.push_back(what); }
    void warn(const std::string& what) { out.warnings.push_back(what); }

    void e2e(const std::string& name, double value, const std::string& unit) {
        out.end_to_end.push_back({name, value, unit});
    }
    void layer(const std::string& name, double value,
               const std::string& unit) {
        out.per_layer.push_back({name, value, unit});
    }
    /// A per-layer count marked exact in the record.
    void exact_layer(const std::string& name, double value,
                     const std::string& unit = "count") {
        out.per_layer.push_back({name, value, unit, true});
    }

    /// Record an exact count: every repetition (traced or not) must
    /// report the same value, or the run fails.
    void exact(const std::string& name, double value) {
        const auto [it, inserted] = exact_.emplace(name, value);
        if (!inserted && it->second != value)
            fail("exact count " + name + " changed between repetitions: " +
                 std::to_string(it->second) + " then " +
                 std::to_string(value));
    }
    [[nodiscard]] double exact_value(const std::string& name) const {
        const auto it = exact_.find(name);
        return it == exact_.end() ? 0.0 : it->second;
    }

    /// Run the workload's set-up and time it from process start to here,
    /// just before the first timed operation.  False in --setup-only mode,
    /// where the workload stops after set-up.
    [[nodiscard]] bool setup(const std::function<void()>& prepare) {
        prepare();
        out.setup_s = seconds_since(opt.process_start);
        return !opt.setup_only;
    }

private:
    std::map<std::string, double> exact_;
};

/// Set the workload up once more in a fresh process (this binary with
/// --setup-only, its own work dir) and return that process's set-up time,
/// counted from its start.  Waits for the process to end.
double fresh_setup_s(const options& opt, std::size_t sample) {
    const std::string exe = fs::read_symlink("/proc/self/exe").string();
    const std::string dir = opt.work_dir + "/setup-" + std::to_string(sample);
    const std::string result = dir + ".out";
    fs::create_directories(opt.work_dir);
    std::vector<std::string> args = {
        exe,          "--setup-only", "--workload", opt.workload,
        "--seed",     std::to_string(opt.seed),   "--seconds",
        "1",          "--trace",      "0",        "--work-dir",
        dir,          "--reference-dir",          opt.reference_dir};
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, result.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    const int err = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0)
        throw std::runtime_error("cannot start a set-up process: " +
                                 std::string(std::strerror(err)));
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    double seconds = 0.0;
    std::ifstream in(result);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(in >> seconds))
        throw std::runtime_error("set-up process " + std::to_string(sample) +
                                 " failed");
    return seconds;
}

/// Median set-up time of this process and setup_samples - 1 fresh ones.
double setup_s(const context& ctx) {
    std::vector<double> samples = {ctx.out.setup_s};
    for (std::size_t i = 1; i < setup_samples; ++i)
        samples.push_back(fresh_setup_s(ctx.opt, i));
    return percentile(samples, 50.0);
}

/// Timed passes of one run: untraced runs time the whole window; traced
/// runs time an untraced half and then a traced half, so the difference
/// is the tracing overhead.
struct window {
    struct pass {
        double wall_s = 0.0;
        double cpu_s = 0.0;
        std::size_t units = 0; ///< scenarios (or requests) completed
    };
    pass untraced;
    pass traced;
    /// Peak RSS after set-up and the window, before the gate's own work.
    double peak_rss_mb = 0.0;
};

/// Call `unit(traced)` until the window's seconds are spent (at least
/// once per pass, and in an untraced run until `min_units` are done);
/// `unit` returns the scenarios it completed and the wall time it timed.
template <typename F>
window run_window(context& ctx, F&& unit, std::size_t min_units = 0) {
    window w;
    auto run_pass = [&](window::pass& p, double seconds, bool traced,
                        std::size_t min_units) {
        ctx.rec.set_enabled(traced);
        if (traced) {
            telemetry::reset();
            telemetry::enable(/*capture_trace=*/false);
        }
        const auto t0 = steady::now();
        const double cpu0 = process_cpu_s();
        do {
            const auto [units, wall] = unit(traced);
            p.units += units;
            p.wall_s += wall;
        } while (seconds_since(t0) < seconds || p.units < min_units);
        p.cpu_s = process_cpu_s() - cpu0;
        if (traced)
            telemetry::disable();
        ctx.rec.set_enabled(false);
    };
    if (ctx.opt.trace) {
        run_pass(w.untraced, ctx.opt.seconds / 2.0, false, 0);
        run_pass(w.traced, ctx.opt.seconds / 2.0, true, 0);
    } else {
        run_pass(w.untraced, ctx.opt.seconds, false, min_units);
    }
    w.peak_rss_mb = peak_rss_mb();
    return w;
}

void emit_throughput(context& ctx, const window& w,
                     const std::vector<double>& latency_ms) {
    const auto& p = w.untraced;
    ctx.e2e("scenarios_per_s", static_cast<double>(p.units) / p.wall_s, "1/s");
    ctx.e2e("bist_latency_p50_ms", percentile(latency_ms, 50.0), "ms");
    ctx.e2e("bist_latency_p90_ms", percentile(latency_ms, 90.0), "ms");
    ctx.e2e("cpu_ms_per_scenario",
            1e3 * p.cpu_s / static_cast<double>(p.units), "ms");
    ctx.e2e("peak_rss_mb", w.peak_rss_mb, "MB");
    ctx.e2e("setup_s", setup_s(ctx), "s");
}

double trace_overhead(const window& w) {
    const double plain =
        w.untraced.wall_s / static_cast<double>(w.untraced.units);
    const double traced =
        w.traced.wall_s / static_cast<double>(w.traced.units);
    return traced / plain - 1.0;
}

// ---------------------------------------------------------------------------
// Reference verdicts
// ---------------------------------------------------------------------------

std::string reference_path(const options& opt) {
    return opt.reference_dir + "/seed-" + std::to_string(opt.seed) + ".json";
}

/// The recorded verdicts of `grid` at this seed.  A seed without a
/// reference goes unchecked, which is said out loud; at a referenced seed
/// a missing file fails the gate.
std::optional<campaign::json_value> reference_grid(context& ctx,
                                                   const std::string& grid) {
    const auto& opt = ctx.opt;
    std::ifstream in;
    if (!opt.reference_dir.empty())
        in.open(reference_path(opt));
    if (!in.is_open()) {
        const std::string why =
            "no reference verdicts for seed " + std::to_string(opt.seed) +
            (opt.reference_dir.empty() ? " (no --reference-dir)"
                                       : " at " + reference_path(opt));
        if (std::find(referenced_seeds.begin(), referenced_seeds.end(),
                      opt.seed) != referenced_seeds.end())
            ctx.fail(why);
        else
            ctx.warn(why + ": " + grid + " verdicts are unchecked");
        return std::nullopt;
    }
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    return campaign::parse_json(text).at("grids").at(grid);
}

std::string ratio(std::size_t a, std::size_t b) {
    return std::to_string(a) + "/" + std::to_string(b);
}

std::string row_key(const std::string& preset, const std::string& fault,
                    std::size_t trial) {
    return preset + " | " + fault + " | " + std::to_string(trial);
}

/// Reference verdict per row key.
std::map<std::string, std::string>
reference_rows(const campaign::json_value& grid) {
    std::map<std::string, std::string> rows;
    for (const auto& r : grid.at("rows").as_array())
        rows[row_key(r.at("preset").as_string(), r.at("fault").as_string(),
                     static_cast<std::size_t>(r.at("trial").as_number()))] =
            r.at("verdict").as_string();
    return rows;
}

void check_reference(context& ctx, const std::string& grid,
                     const campaign::campaign_result& r) {
    const auto ref = reference_grid(ctx, grid);
    if (!ref)
        return;
    const auto rows = reference_rows(*ref);
    if (rows.size() != r.results.size())
        ctx.fail(grid + ": reference has " + std::to_string(rows.size()) +
                 " rows, run has " + std::to_string(r.results.size()));
    for (const auto& row : r.results) {
        const std::string key = row_key(row.sc.preset_name,
                                        bist::to_string(row.sc.fault),
                                        row.sc.trial);
        const auto it = rows.find(key);
        if (it == rows.end() || it->second != verdict(row))
            ctx.fail(grid + ": verdict of " + key + " is '" + verdict(row) +
                     "', reference '" +
                     (it == rows.end() ? "missing" : it->second) + "'");
    }
    if (ref->at("yield").as_string() != ratio(r.golden_passes, r.golden_runs) ||
        ref->at("coverage").as_string() !=
            ratio(r.fault_detected, r.fault_runs))
        ctx.fail(grid + ": yield " + ratio(r.golden_passes, r.golden_runs) +
                 " / coverage " + ratio(r.fault_detected, r.fault_runs) +
                 " differ from the reference " +
                 ref->at("yield").as_string() + " / " +
                 ref->at("coverage").as_string());
}

// ---------------------------------------------------------------------------
// Per-layer metrics.  Every workload emits every name; a layer a workload
// does not exercise in its timed window reports a true zero count.
// ---------------------------------------------------------------------------

struct layer_inputs {
    std::array<double, stage_count> stage_ms{}; ///< mean per scenario
    double contention_ratio = 0.0;
    double idle_frac = 0.0;
    double steals = 0.0;
    double service_overhead_frac = 0.0;
    double heartbeats = 0.0;
    double trace_overhead_frac = 0.0;
    replay_totals replay;
    persistence_totals persist;
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void emit_layers(context& ctx, const layer_inputs& in) {
    const auto& rp = in.replay;
    const auto& ps = in.persist;
    const auto totals = ctx.rec.total_ns();
    auto ns = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second;
    };
    const auto n = static_cast<double>(rp.scenarios);

    for (std::size_t i = 0; i < stage_count; ++i) {
        const std::string stage = stage_key(bist::stage_order[i]);
        ctx.layer("bist." + stage + ".ms", in.stage_ms[i], "ms");
        const double frac = per(rp.attributed_ns[i], rp.stage_ns[i]);
        ctx.layer("bist." + stage + ".attributed_frac", frac, "fraction");
        if (rp.stage_ns[i] > 0.0 && frac < 0.9)
            ctx.warn("bist." + stage + ".attributed_frac = " +
                     std::to_string(frac) +
                     " < 0.9: sub-stage spans miss part of the stage");
    }
    ctx.layer("bist.reconstruction.contention_ratio", in.contention_ratio,
              "ratio");

    ctx.layer("adc.capture.ns_per_sample",
              per(ns("adc.capture"), static_cast<double>(rp.adc_samples)),
              "ns");
    ctx.layer("sampling.pnbs_dense.ns_per_point",
              per(ns("sampling.pnbs_dense"),
                  static_cast<double>(rp.pnbs_points)),
              "ns");
    ctx.exact_layer("sampling.pnbs_dense.points",
                    static_cast<double>(rp.pnbs_points));
    ctx.layer("dsp.ddc.ns_per_input_sample",
              per(ns("dsp.ddc"), static_cast<double>(rp.ddc_input_samples)),
              "ns");
    ctx.exact_layer("dsp.ddc.input_samples",
                    static_cast<double>(rp.ddc_input_samples));
    ctx.layer("dsp.ddc.decimation",
              per(static_cast<double>(rp.ddc_decimation), n), "factor");
    ctx.layer("dsp.welch.ms", 1e-6 * per(ns("dsp.welch"), n), "ms");
    ctx.layer("calib.lms.ms", 1e-6 * per(ns("calib.lms"), n), "ms");
    ctx.exact_layer("calib.lms.cost_evaluations",
                    static_cast<double>(rp.lms_cost_evaluations));
    ctx.layer("calib.lms.us_per_cost_eval",
              1e-3 * per(ns("calib.lms"),
                         static_cast<double>(rp.lms_cost_evaluations)),
              "us");
    ctx.exact_layer("calib.lms.iterations",
                    static_cast<double>(rp.lms_iterations));
    ctx.layer("waveform.mask.ms", 1e-6 * per(ns("waveform.mask"), n), "ms");
    ctx.layer("waveform.evm.ms", 1e-6 * per(ns("waveform.evm"), n), "ms");
    ctx.layer("waveform.generate.ms", 1e-6 * per(ns("waveform.generate"), n),
              "ms");
    ctx.layer("rf.tx.ms", 1e-6 * per(ns("rf.tx"), n), "ms");
    ctx.layer("dsp.capture_filter.ms",
              1e-6 * per(ns("dsp.capture_filter"), n), "ms");

    ctx.layer("core.scheduler.idle_frac", in.idle_frac, "fraction");
    ctx.layer("core.scheduler.steals", in.steals, "count");
    auto counted = [&](const char* name) {
        ctx.exact_layer(name, ctx.exact_value(name));
    };
    counted("campaign.stage_pool.adopts");
    counted("campaign.stage_pool.computes");
    counted("campaign.cache.hits");
    counted("campaign.cache.misses");
    const auto ops = static_cast<double>(ps.cache_ops);
    ctx.layer("campaign.cache.load_us", 1e-3 * per(ps.cache_load_ns, ops),
              "us");
    ctx.layer("campaign.cache.store_us", 1e-3 * per(ps.cache_store_ns, ops),
              "us");

    counted("artefact_store.hits");
    counted("artefact_store.misses");
    ctx.exact_layer("artefact_store.bytes_served",
                    ctx.exact_value("artefact_store.bytes_served"), "bytes");
    for (std::size_t i = 0; i < stage_count; ++i)
        ctx.layer(std::string("artefact_store.load_us.") +
                      stage_key(bist::stage_order[i]),
                  1e-3 * per(ps.load_ns[i], static_cast<double>(ps.loads[i])),
                  "us");
    ctx.layer("artefact_store.store_us",
              1e-3 * per(ps.store_ns, static_cast<double>(ps.stores)), "us");
    const double mb = 1e-6 * static_cast<double>(ps.raw_bytes);
    ctx.layer("byte_codec.decompress_mb_per_s",
              per(mb, 1e-9 * ps.decompress_ns), "MB/s");
    ctx.layer("export.parse_json_mb_per_s", per(mb, 1e-9 * ps.parse_ns),
              "MB/s");
    ctx.layer("stage_codec.decode_us",
              1e-3 * per(ps.decode_ns, static_cast<double>(ps.decodes)), "us");

    ctx.layer("journal.append_us",
              1e-3 * per(ps.journal_ns,
                         static_cast<double>(ps.journal_appends)),
              "us");
    counted("journal.rows");
    counted("service.leases");
    counted("service.requeues");
    counted("service.rows");
    ctx.layer("service.heartbeats", in.heartbeats, "count");
    ctx.layer("service.overhead_frac", in.service_overhead_frac, "fraction");
    ctx.layer("bench.trace_overhead_frac", in.trace_overhead_frac, "fraction");

    // A replay that stopped reproducing its stage makes that layer's
    // numbers stale: say which, but leave the end-to-end run standing.
    for (const auto& layer : rp.stale)
        ctx.warn("layer " + layer +
                 " is stale: its replay no longer reproduces the stage "
                 "output element-exactly");
    ctx.layer("bench.stale_layers", static_cast<double>(rp.stale.size()),
              "count");
}

/// Stage means and scheduler figures from the library's own stage
/// summary over the traced campaigns.
void grid_stage_layers(layer_inputs& in,
                       const std::vector<campaign::campaign_result>& runs) {
    telemetry::summary sum;
    double rows = 0.0;
    double budget_ns = 0.0;
    for (const auto& r : runs) {
        sum.merge_from(r.telemetry_summary);
        rows += static_cast<double>(r.results.size());
        budget_ns += static_cast<double>(r.threads_used) * r.wall_s * 1e9;
    }
    for (std::size_t i = 0; i < stage_count; ++i)
        in.stage_ms[i] =
            1e-6 * per(static_cast<double>(sum.categories[i].total_ns), rows);
    in.idle_frac = per(
        static_cast<double>(sum.of(telemetry::category::idle).total_ns),
        budget_ns);
}

/// Counts every campaign repetition must repeat exactly.
void record_campaign_counts(context& ctx, const campaign::campaign_result& r) {
    ctx.exact("campaign.stage_pool.adopts",
              static_cast<double>(r.stage_reuse_hits));
    ctx.exact("campaign.stage_pool.computes",
              static_cast<double>(r.stage_reuse_computes));
    ctx.exact("campaign.cache.hits", static_cast<double>(r.cache_hits));
    ctx.exact("campaign.cache.misses", static_cast<double>(r.cache_misses));
    ctx.exact("artefact_store.hits", static_cast<double>(r.store_hits));
    ctx.exact("artefact_store.misses", static_cast<double>(r.store_misses));
    ctx.exact("artefact_store.bytes_served",
              static_cast<double>(r.store_bytes));
}

std::size_t count_errors(context& ctx, const campaign::campaign_result& r) {
    std::size_t n = 0;
    for (const auto& row : r.results)
        if (errored(row)) {
            ++n;
            ctx.fail("scenario " + row_key(row.sc.preset_name,
                                           bist::to_string(row.sc.fault),
                                           row.sc.trial) +
                     " failed: " + row.error);
        }
    return n;
}

/// The cheapest row of every grid here: paper-qpsk-10M, golden, trial 0.
const campaign::scenario&
cheap_row(const std::vector<campaign::scenario>& grid) {
    for (const auto& sc : grid)
        if (sc.preset_name == "paper-qpsk-10M" &&
            sc.fault == bist::fault_kind::none && sc.trial == 0)
            return sc;
    return grid.front();
}

/// Grade one cheap row untimed on the calling thread: its allocator
/// arena then serves the multi-MB stage buffers without first-touch page
/// faults, as it does for every later run (lazy set-up, not work).
void warm_up(const campaign::campaign_config& cfg,
             const std::vector<campaign::scenario>& grid) {
    (void)bist::bist_engine(campaign::scenario_config(cfg, cheap_row(grid)))
        .run();
}

/// One uncontended staged run per preset of `cfg` (its first row), with
/// sub-stage replays; the sessions feed the persistence timings.
std::vector<persisted_row> replay_sample(context& ctx,
                                         const campaign::campaign_config& cfg,
                                         replay_totals& totals) {
    const auto grid = campaign::expand_grid(cfg);
    warm_up(cfg, grid);
    ctx.rec.set_enabled(true);
    std::vector<persisted_row> rows;
    const std::size_t per_preset = grid.size() / cfg.presets.size();
    for (std::size_t p = 0; p < cfg.presets.size(); ++p) {
        const auto& sc = grid[p * per_preset];
        std::shared_ptr<const bist::bist_session> session = run_staged(
            campaign::scenario_config(cfg, sc), ctx.rec, sc.index, totals);
        replay_substages(*session, ctx.rec, sc.index, totals);
        rows.push_back({sc, std::move(session)});
    }
    ctx.rec.set_enabled(false);
    return rows;
}

persistence_totals persistence(context& ctx,
                               const std::vector<persisted_row>& rows,
                               const campaign::campaign_config& cfg) {
    ctx.rec.set_enabled(true);
    auto t = measure_persistence(rows, cfg.stage_store_dir,
                                 ctx.opt.work_dir + "/persistence",
                                 campaign::campaign_identity(cfg), ctx.rec);
    ctx.rec.set_enabled(false);
    if (t.load_misses != 0)
        ctx.warn("persistence timings: " + std::to_string(t.load_misses) +
                 " store loads missed");
    return t;
}

/// Per-stage mean of the replayed runs (ms per scenario).
double replay_stage_mean_ms(const replay_totals& t, bist::stage s) {
    const auto i = static_cast<std::size_t>(bist::stage_index(s));
    return 1e-6 * per(t.stage_ns[i], static_cast<double>(t.scenarios));
}

/// Materialise every row and grade one cheap row: the process-level lazy
/// set-up (code pages, allocator arenas, SIMD dispatch) a campaign pays
/// once.
void cold_setup_pass(const campaign::campaign_config& cfg) {
    const auto grid = campaign::expand_grid(cfg);
    for (const auto& sc : grid)
        (void)campaign::scenario_config(cfg, sc);
    warm_up(cfg, grid);
}

// ---------------------------------------------------------------------------
// cold_fault_grid
// ---------------------------------------------------------------------------

void cold_fault_grid(context& ctx) {
    campaign::campaign_config cfg;
    if (!ctx.setup([&] {
            cfg = fault_grid(ctx.opt.seed);
            cold_setup_pass(cfg);
        }))
        return;

    std::vector<double> latency_ms;
    std::vector<campaign::campaign_result> traced_runs;
    std::string first_export;
    std::uint64_t steals = 0;
    const window w = run_window(ctx, [&](bool traced) {
        const auto steals0 = counter_now(telemetry::counter::sched_steals);
        const auto span = ctx.rec.span("campaign.run");
        const auto t0 = steady::now();
        auto r = campaign::campaign_runner(cfg).run();
        const double wall = seconds_since(t0);
        steals += counter_now(telemetry::counter::sched_steals) - steals0;

        record_campaign_counts(ctx, r);
        ctx.out.attempted += r.results.size();
        ctx.out.failed += count_errors(ctx, r);
        const std::string exp = timing_free_export(r);
        if (first_export.empty()) {
            first_export = exp;
            check_reference(ctx, "fault_grid", r);
        } else if (exp != first_export) {
            ctx.fail("cold_fault_grid: a repetition's export differs from "
                     "the first");
        }
        if (!traced)
            for (const auto& row : r.results)
                latency_ms.push_back(1e3 * row.elapsed_s);
        const std::size_t rows = r.results.size();
        if (traced)
            traced_runs.push_back(std::move(r));
        return std::pair{rows, wall};
    });

    if (!ctx.opt.trace) {
        emit_throughput(ctx, w, latency_ms);
        return;
    }
    layer_inputs in;
    grid_stage_layers(in, traced_runs);
    in.steals = per(static_cast<double>(steals),
                    static_cast<double>(traced_runs.size()));
    in.trace_overhead_frac = trace_overhead(w);
    const auto sample = replay_sample(ctx, cfg, in.replay);
    in.contention_ratio =
        per(in.stage_ms[3], replay_stage_mean_ms(in.replay,
                                                 bist::stage::reconstruction));
    in.persist = persistence(ctx, sample, cfg);
    emit_layers(ctx, in);
}

// ---------------------------------------------------------------------------
// bist_latency
// ---------------------------------------------------------------------------

/// Request order: rounds of one row per preset (in grid order), each
/// preset's faults visited in a seeded order, so every run sees the same
/// preset mix whatever its length.
std::vector<campaign::scenario> request_rounds(
    const campaign::campaign_config& cfg, std::size_t rounds) {
    const auto grid = campaign::expand_grid(cfg);
    const std::size_t faults = cfg.faults.size();
    std::vector<std::vector<std::size_t>> order(cfg.presets.size());
    for (std::size_t p = 0; p < order.size(); ++p) {
        order[p].resize(faults);
        std::iota(order[p].begin(), order[p].end(), std::size_t{0});
        rng gen(cfg.seed ^ (0xB157u + p));
        for (std::size_t i = faults - 1; i > 0; --i)
            std::swap(order[p][i],
                      order[p][static_cast<std::size_t>(
                          gen.uniform_int(0, static_cast<int>(i)))]);
    }
    std::vector<campaign::scenario> out;
    for (std::size_t r = 0; r < rounds; ++r)
        for (std::size_t p = 0; p < order.size(); ++p)
            out.push_back(
                grid[(p * faults + order[p][r % faults]) * cfg.trials]);
    return out;
}

void bist_latency(context& ctx) {
    campaign::campaign_config cfg;
    const bool timed = ctx.setup([&] {
        cfg = fault_grid(ctx.opt.seed);
        cold_setup_pass(cfg);
    });
    // Every time of this workload is host-adjusted (README): set-up by the
    // canary run right after it, each request by the mean of the canary
    // runs around it.  The request times as measured go to `unadjusted`.
    host_canary canary;
    double canary_before = canary.run_ms();
    ctx.out.setup_s *= host_canary::nominal_ms / canary_before;
    if (!timed)
        return;
    const std::size_t presets = cfg.presets.size();
    // One cycle of rounds: every row of the grid once.  Only whole cycles
    // are timed, so every run times the same rows whatever the host's or
    // the code's speed.
    const auto plan = request_rounds(cfg, cfg.faults.size());
    const auto ref = reference_grid(ctx, "fault_grid");
    const auto ref_rows =
        ref ? reference_rows(*ref) : std::map<std::string, std::string>{};

    std::vector<double> latency_ms;     // untraced, host-adjusted
    std::vector<double> raw_latency_ms; // untraced, as measured
    std::vector<double> slowdown;       // untraced, canary ÷ nominal
    std::vector<double> cpu_s;          // untraced, host-adjusted
    std::vector<double> raw_cpu_s;
    std::size_t next = 0;
    std::vector<bist::bist_report> first_round; // checked against a campaign
    replay_totals stages; // every traced request's stage spans
    const window w = run_window(ctx, [&](bool traced) {
        // One round: one request per preset, closed loop, one client.
        double wall = 0.0;
        for (std::size_t p = 0; p < presets; ++p, ++next) {
            const auto& sc = plan[next % plan.size()];
            const auto materialised = campaign::scenario_config(cfg, sc);
            bist::bist_report report;
            const double cpu0 = process_cpu_s();
            const auto t0 = steady::now();
            try {
                if (traced) {
                    report = run_staged(materialised, ctx.rec, next, stages)
                                 ->report();
                } else {
                    report = bist::bist_engine(materialised).run();
                }
            } catch (const std::exception& e) {
                ++ctx.out.failed;
                ctx.fail("request " + sc.preset_name + " failed: " + e.what());
            }
            const double dt = seconds_since(t0);
            const double cpu = process_cpu_s() - cpu0;
            const double canary_after = canary.run_ms();
            const double host = 0.5 * (canary_before + canary_after) /
                                host_canary::nominal_ms;
            canary_before = canary_after;
            wall += dt / host;
            ++ctx.out.attempted;
            if (!traced) {
                latency_ms.push_back(1e3 * dt / host);
                raw_latency_ms.push_back(1e3 * dt);
                slowdown.push_back(host);
                cpu_s.push_back(cpu / host);
                raw_cpu_s.push_back(cpu);
            }
            if (first_round.size() < presets)
                first_round.push_back(report);
            if (ref) {
                const std::string key = row_key(
                    sc.preset_name, bist::to_string(sc.fault), sc.trial);
                const auto it = ref_rows.find(key);
                if (it == ref_rows.end() || it->second != verdict(report))
                    ctx.fail("bist_latency: verdict of " + key + " is '" +
                             verdict(report) + "', reference '" +
                             (it == ref_rows.end() ? "missing" : it->second) +
                             "'");
            }
        }
        return std::pair{presets, wall};
    }, plan.size());

    // Gate: the first round's reports equal the same rows graded by the
    // campaign runner (one single-row lease each, run side by side).
    std::vector<std::future<campaign::campaign_result>> rows;
    for (std::size_t p = 0; p < presets; ++p) {
        campaign::campaign_config one = cfg;
        one.threads = 1;
        one.lease = campaign::lease_range{plan[p].index, plan[p].index + 1};
        rows.push_back(std::async(std::launch::async, [one] {
            return campaign::campaign_runner(one).run();
        }));
    }
    for (std::size_t p = 0; p < presets; ++p) {
        const auto r = rows[p].get();
        if (r.results.size() != 1 ||
            campaign::report_json(r.results[0].report) !=
                campaign::report_json(first_round[p]))
            ctx.fail("bist_latency: the report of " + plan[p].preset_name +
                     " differs from the campaign's row " +
                     std::to_string(plan[p].index));
    }

    if (!ctx.opt.trace) {
        const std::size_t kept = latency_ms.size() / plan.size() * plan.size();
        for (auto* v :
             {&latency_ms, &raw_latency_ms, &slowdown, &cpu_s, &raw_cpu_s})
            v->resize(kept);
        const auto sum = [](const std::vector<double>& v) {
            return std::accumulate(v.begin(), v.end(), 0.0);
        };
        window adjusted = w;
        adjusted.untraced = {1e-3 * sum(latency_ms), sum(cpu_s), kept};
        emit_throughput(ctx, adjusted, latency_ms);
        const auto n = static_cast<double>(kept);
        auto& raw = ctx.out.unadjusted;
        raw.push_back({"scenarios_per_s", 1e3 * n / sum(raw_latency_ms), "1/s"});
        raw.push_back({"bist_latency_p50_ms", percentile(raw_latency_ms, 50.0),
                       "ms"});
        raw.push_back({"bist_latency_p90_ms", percentile(raw_latency_ms, 90.0),
                       "ms"});
        raw.push_back({"cpu_ms_per_scenario", 1e3 * sum(raw_cpu_s) / n, "ms"});
        raw.push_back({"host_slowdown_p50", percentile(slowdown, 50.0),
                       "ratio"});
        return;
    }
    layer_inputs in;
    for (std::size_t i = 0; i < stage_count; ++i)
        in.stage_ms[i] = replay_stage_mean_ms(stages, bist::stage_order[i]);
    in.contention_ratio = 1.0; // one client: nothing to contend with
    in.trace_overhead_frac = trace_overhead(w);
    // Sub-stage replays of a fixed row per preset, whatever the window
    // reached, so the replay counts repeat exactly at a seed.
    const auto sample = replay_sample(ctx, cfg, in.replay);
    in.persist = persistence(ctx, sample, cfg);
    emit_layers(ctx, in);
}

// ---------------------------------------------------------------------------
// mask_regrade
// ---------------------------------------------------------------------------

void mask_regrade(context& ctx) {
    campaign::campaign_config cfg;
    std::string primed_export;
    std::vector<std::string> regraded_files; // removed to restore the snapshot
    std::size_t strict_rows = 0;
    if (!ctx.setup([&] {
            cfg = guard_band_grid(ctx.opt.seed, /*strict_half=*/true);
            cfg.cache_dir = ctx.opt.work_dir + "/mask_regrade/cache";
            cfg.stage_store_dir = ctx.opt.work_dir + "/mask_regrade/store";
            const auto primed = campaign::campaign_runner(cfg).run();
            primed_export = timing_free_export(primed);
            ctx.out.failed += count_errors(ctx, primed);
            check_reference(ctx, "guard_band", primed);
            // Forget what the strict rows graded (their cache entries and
            // grading artefacts): the primed state is then exactly a grid
            // graded before its masks were tightened.
            const campaign::scenario_cache cache(cfg.cache_dir);
            const campaign::stage_artefact_store store(cfg.stage_store_dir);
            for (const auto& sc : campaign::expand_grid(cfg)) {
                if (!is_strict(sc))
                    continue;
                ++strict_rows;
                const auto m = campaign::scenario_config(cfg, sc);
                regraded_files.push_back(
                    cache.path_for(campaign::scenario_cache::key(sc, m)));
                regraded_files.push_back(store.path_for(
                    bist::stage_input_digest(m, bist::stage::grading),
                    bist::stage::grading));
            }
            for (const auto& f : regraded_files)
                fs::remove(f);
        }))
        return;

    std::vector<double> latency_ms;
    std::vector<campaign::campaign_result> traced_runs;
    std::uint64_t steals = 0;
    const window w = run_window(ctx, [&](bool traced) {
        for (const auto& f : regraded_files)
            fs::remove(f); // restore the primed snapshot, untimed
        const auto steals0 = counter_now(telemetry::counter::sched_steals);
        const auto span = ctx.rec.span("campaign.run");
        const auto t0 = steady::now();
        auto r = campaign::campaign_runner(cfg).run();
        const double wall = seconds_since(t0);
        steals += counter_now(telemetry::counter::sched_steals) - steals0;

        record_campaign_counts(ctx, r);
        ctx.out.attempted += r.results.size();
        ctx.out.failed += count_errors(ctx, r);
        if (timing_free_export(r) != primed_export)
            ctx.fail("mask_regrade: the warm export differs from the cold "
                     "priming run's");
        if (r.cache_hits + strict_rows != r.results.size())
            ctx.fail("mask_regrade: expected " +
                     std::to_string(r.results.size() - strict_rows) +
                     " cache hits, got " + std::to_string(r.cache_hits));
        if (!traced)
            for (const auto& row : r.results)
                if (is_strict(row.sc))
                    latency_ms.push_back(1e3 * row.elapsed_s);
        const std::size_t rows = r.results.size();
        if (traced)
            traced_runs.push_back(std::move(r));
        return std::pair{rows, wall};
    });

    if (!ctx.opt.trace) {
        emit_throughput(ctx, w, latency_ms);
        return;
    }
    layer_inputs in;
    grid_stage_layers(in, traced_runs);
    in.steals = per(static_cast<double>(steals),
                    static_cast<double>(traced_runs.size()));
    in.trace_overhead_frac = trace_overhead(w);
    const auto sample = replay_sample(ctx, cfg, in.replay);
    in.persist = persistence(ctx, sample, cfg);
    emit_layers(ctx, in);
}

// ---------------------------------------------------------------------------
// leased_warm_grid
// ---------------------------------------------------------------------------

void leased_warm_grid(context& ctx) {
    campaign::campaign_config cfg;
    std::string primed_export;
    const std::string dir = ctx.opt.work_dir + "/leased_warm_grid";
    if (!ctx.setup([&] {
            cfg = guard_band_grid(ctx.opt.seed, /*strict_half=*/false);
            cfg.cache_dir = dir + "/cache";
            cfg.stage_store_dir = dir + "/store";
            const auto primed = campaign::campaign_runner(cfg).run();
            primed_export = timing_free_export(primed);
            ctx.out.failed += count_errors(ctx, primed);
            check_reference(ctx, "warm_grid", primed);
        }))
        return;

    // The library's default cadence, as `--serve`/`--worker` run it.
    const campaign::service::service_config svc;
    campaign::campaign_config coord_cfg = cfg;
    coord_cfg.threads = compute_threads / service_workers;

    std::vector<double> latency_ms;
    std::vector<campaign::campaign_result> traced_runs;
    double overhead_sum = 0.0;
    double heartbeats = 0.0;
    std::size_t traced_sessions = 0;
    std::uint64_t steals = 0;
    const window w = run_window(ctx, [&](bool traced) {
        std::array<std::string, service_workers> journals;
        for (std::size_t i = 0; i < service_workers; ++i) {
            journals[i] = dir + "/journal-" + std::to_string(i) + ".jsonl";
            fs::remove(journals[i]); // each session journals afresh
        }
        const auto steals0 = counter_now(telemetry::counter::sched_steals);
        const auto span = ctx.rec.span("service.session");
        const auto t0 = steady::now();
        campaign::service::coordinator coord(coord_cfg, svc);
        campaign::service::service_config wsvc = svc;
        wsvc.port = coord.port();
        auto served = std::async(std::launch::async, [&] {
            const auto s = ctx.rec.span("service.serve");
            return coord.serve();
        });
        std::vector<std::future<campaign::service::worker_report>> workers;
        for (std::size_t i = 0; i < service_workers; ++i) {
            campaign::campaign_config wcfg = coord_cfg;
            wcfg.journal_path = journals[i];
            workers.push_back(std::async(std::launch::async, [&, wcfg] {
                const auto s = ctx.rec.span("service.worker");
                return campaign::service::run_worker(wcfg, wsvc);
            }));
        }
        std::size_t rows_streamed = 0;
        for (auto& f : workers)
            rows_streamed += f.get().rows;
        auto report = served.get();
        const double wall = seconds_since(t0);
        steals += counter_now(telemetry::counter::sched_steals) - steals0;

        const auto& r = report.result;
        record_campaign_counts(ctx, r);
        std::size_t journal_rows = 0;
        for (const auto& j : journals)
            journal_rows += campaign::read_journal(j).rows.size();
        ctx.exact("journal.rows", static_cast<double>(journal_rows));
        ctx.exact("service.leases", static_cast<double>(report.leases.leases));
        ctx.exact("service.requeues",
                  static_cast<double>(report.leases.requeues));
        ctx.exact("service.rows", static_cast<double>(rows_streamed));
        ctx.out.attempted += r.results.size();
        ctx.out.failed += count_errors(ctx, r);
        if (timing_free_export(r) != primed_export)
            ctx.fail("leased_warm_grid: the served export differs from the "
                     "cold priming run's");
        if (!traced)
            latency_ms.push_back(1e3 * wall);
        if (traced) {
            // Per-lease compute is the summed lease walls over the workers.
            overhead_sum += 1.0 - r.wall_s /
                                      static_cast<double>(service_workers) /
                                      wall;
            heartbeats += static_cast<double>(report.leases.heartbeats);
            ++traced_sessions;
            traced_runs.push_back(r);
        }
        return std::pair{r.results.size(), wall};
    });

    if (!ctx.opt.trace) {
        emit_throughput(ctx, w, latency_ms);
        return;
    }
    layer_inputs in;
    grid_stage_layers(in, traced_runs);
    const auto sessions = static_cast<double>(traced_sessions);
    in.steals = per(static_cast<double>(steals), sessions);
    in.service_overhead_frac = per(overhead_sum, sessions);
    in.heartbeats = per(heartbeats, sessions);
    in.trace_overhead_frac = trace_overhead(w);
    const auto sample = replay_sample(ctx, cfg, in.replay);
    in.persist = persistence(ctx, sample, cfg);
    emit_layers(ctx, in);
}

using workload_fn = void (*)(context&);

const std::vector<std::pair<std::string, workload_fn>>& workloads() {
    static const std::vector<std::pair<std::string, workload_fn>> all = {
        {"cold_fault_grid", cold_fault_grid},
        {"bist_latency", bist_latency},
        {"mask_regrade", mask_regrade},
        {"leased_warm_grid", leased_warm_grid},
    };
    return all;
}

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& [name, fn] : workloads())
            n.push_back(name);
        return n;
    }();
    return names;
}

outcome run_workload(const options& opt, span_recorder& rec) {
    fs::remove_all(opt.work_dir); // nothing left from an earlier run
    context ctx(opt, rec);
    for (const auto& [name, fn] : workloads())
        if (name == opt.workload)
            fn(ctx);
    fs::remove_all(opt.work_dir);
    return std::move(ctx.out);
}

void record_reference(const options& opt) {
    const std::vector<std::pair<std::string, campaign::campaign_config>> grids =
        {{"fault_grid", fault_grid(opt.seed)},
         {"guard_band", guard_band_grid(opt.seed, true)},
         {"warm_grid", guard_band_grid(opt.seed, false)}};
    std::string body;
    for (const auto& [name, cfg] : grids) {
        const auto r = campaign::campaign_runner(cfg).run();
        std::string rows;
        for (const auto& row : r.results) {
            campaign::json_object_writer o;
            o.string_field("preset", row.sc.preset_name);
            o.string_field("fault", bist::to_string(row.sc.fault));
            o.size_field("trial", row.sc.trial);
            o.string_field("verdict", verdict(row));
            rows += (rows.empty() ? "\n    " : ",\n    ") + o.str();
        }
        campaign::json_object_writer g;
        g.string_field("yield", ratio(r.golden_passes, r.golden_runs));
        g.string_field("coverage", ratio(r.fault_detected, r.fault_runs));
        g.field("rows", "[" + rows + "\n  ]");
        body += (body.empty() ? "\n  " : ",\n  ") +
                campaign::json_quote(name) + ": " + g.str();
    }
    fs::create_directories(opt.reference_dir);
    std::ofstream(reference_path(opt))
        << "{\"seed\": " << opt.seed << ", \"grids\": {" << body << "\n}}\n";
}

} // namespace bench
