/// \file campaign_runner.cpp
/// \brief Production-style campaign CLI: expand a standard × fault ×
///        Monte-Carlo grid, execute it as a task DAG on a work-stealing
///        scheduler with stage-shared scenario pipelines, print the
///        fault-coverage matrix and export structured artefacts.  Also
///        merges shard result files from independent processes and
///        manages the artefact store.
///
/// Examples:
///   campaign_runner --trials 3 --threads 8 --json campaign.json
///   campaign_runner --presets paper-qpsk-10M,dqpsk-1M
///                   --faults none,pa-gain-drop --csv coverage.csv
///   campaign_runner --trials 8 --store .sdrbist-store
///                   --shard 0/3 --jsonl shard0.jsonl --shard-out s0.json
///   campaign_runner --merge s0.json s1.json s2.json --json merged.json
///   campaign_runner cache-stats .sdrbist-store
///   campaign_runner cache-gc .sdrbist-store --max-bytes 16000000
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bist/config_canonical.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"
#include "campaign/shard_io.hpp"
#include "core/fault_injection.hpp"
#include "core/build_info.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/table.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"

namespace {

using namespace sdrbist;

std::vector<std::string> split_csv_list(const std::string& arg) {
    std::vector<std::string> items;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/// Parse a non-negative integer CLI value; exits with a usage error on
/// anything else (std::stoul would silently wrap "-1" to 2^64-1).
std::uint64_t parse_count(const std::string& option, const std::string& text,
                          int base = 10) {
    try {
        if (text.empty() || text[0] == '-')
            throw std::invalid_argument("negative");
        std::size_t consumed = 0;
        const std::uint64_t v = std::stoull(text, &consumed, base);
        if (consumed != text.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception&) {
        std::cerr << option << " needs a non-negative integer, got '" << text
                  << "'\n";
        std::exit(2);
    }
}

/// Parse a floating-point CLI value, rejecting trailing garbage.
double parse_double(const std::string& option, const std::string& text) {
    try {
        std::size_t consumed = 0;
        const double v = std::stod(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception&) {
        std::cerr << option << " needs a number, got '" << text << "'\n";
        std::exit(2);
    }
}

bist::fault_kind fault_by_name(const std::string& name) {
    try {
        return bist::fault_from_string(name);
    } catch (const std::exception&) {
        std::cerr << "unknown fault: " << name << "\nknown faults:";
        for (const auto f : bist::fault_catalogue())
            std::cerr << ' ' << bist::to_string(f);
        std::cerr << '\n';
        std::exit(2);
    }
}

void usage() {
    std::cout <<
        "usage: campaign_runner [options]\n"
        "       campaign_runner --merge shard0.json shard1.json ... [export "
        "options]\n"
        "       campaign_runner cache-stats <dir>\n"
        "       campaign_runner cache-gc <dir> [--max-bytes N] [--max-age-s N]"
        " [--max-entries N]\n"
        "  --presets a,b,c   presets to grade (default: whole catalogue)\n"
        "  --faults a,b      faults to inject (default: whole catalogue)\n"
        "  --trials N        Monte-Carlo trials per cell (default 1)\n"
        "  --reseed MODE     what trials rerandomise: device (fresh device\n"
        "                    seeds + perturbations, default), probes (fresh\n"
        "                    probe draw on one fixed device; upstream\n"
        "                    pipeline stages then shared across trials),\n"
        "                    off (legacy: every scenario keeps base seeds)\n"
        "  --threads N       worker threads (default: hardware)\n"
        "  --seed S          campaign master seed\n"
        "  --jitter-sigma X  log-normal per-trial jitter spread\n"
        "  --dcde-sigma-ps X gaussian per-trial DCDE static-error spread\n"
        "  --backend NAME    force the SIMD kernel backend (scalar, avx2,\n"
        "                    neon; default: best the CPU supports, or the\n"
        "                    SDRBIST_FORCE_BACKEND environment variable)\n"
        "  --stage-sharing S deepest pipeline stage pooled across scenarios\n"
        "                    that provably need the same result: off,\n"
        "                    stimulus, tx-capture, calibration,\n"
        "                    reconstruction (default)\n"
        "  --shard i/N       grade only shard i of N (grid index mod N)\n"
        "  --serve H:P       run as the distributed-campaign coordinator:\n"
        "                    listen on host:port (port 0 = ephemeral),\n"
        "                    lease grid slices to --worker processes,\n"
        "                    re-queue leases whose workers die, merge the\n"
        "                    completed leases bit-identically and export\n"
        "                    as usual (workers grade; this process never\n"
        "                    does).  Use the same grid flags on both ends\n"
        "                    — the handshake verifies the identity digest\n"
        "  --worker H:P      run as a worker for the coordinator at\n"
        "                    host:port: request leases, grade them,\n"
        "                    stream rows back, heartbeat while computing.\n"
        "                    Pair with --journal so a restarted worker\n"
        "                    resumes instead of re-grading (resume is\n"
        "                    implied, cold start included)\n"
        "  --lease-size N    scenarios per lease (--serve; default 4)\n"
        "  --heartbeat-s X   worker beat period (default 5).  Set it on\n"
        "                    --serve: the coordinator re-queues a lease\n"
        "                    silent for 3X, and workers adopt its cadence\n"
        "                    at handshake\n"
        "  --shard-out PATH  write this run's full-fidelity result file\n"
        "                    (the --merge input; no shared cache needed)\n"
        "  --merge F...      merge shard result files instead of running\n"
        "  --salvage         with --merge: quarantine unreadable shard\n"
        "                    files and drop bad rows instead of failing\n"
        "  --store DIR       persistent artefact store: graded scenarios and\n"
        "                    stage outputs are published by content key and\n"
        "                    reused on later runs (an overlapping grid skips\n"
        "                    graded scenarios and shared stage computes)\n"
        "                    while every export stays byte-identical.\n"
        "                    Manage with cache-stats/cache-gc <dir>;\n"
        "                    cache-gc budgets: --max-bytes N, --max-age-s N,\n"
        "                    --max-entries N (LRU eviction, oldest first)\n"
        "  --max-retries N   re-run a scenario up to N times after a\n"
        "                    transient failure (default 2; contract\n"
        "                    violations are never retried)\n"
        "  --retry-backoff-ms X  base delay before a retry, doubling per\n"
        "                    attempt (default 1)\n"
        "  --deadline-s X    per-scenario wall-clock budget; an overrun\n"
        "                    marks the scenario failed-timeout without\n"
        "                    killing the campaign (default: none)\n"
        "  --journal PATH    append each completed scenario to a crash-safe\n"
        "                    JSONL journal (the --resume input)\n"
        "  --resume PATH     replay a journal from a killed run, computing\n"
        "                    only the missing scenarios (implies --journal\n"
        "                    PATH: the run keeps appending to it)\n"
        "  --fault-spec SPEC arm deterministic fault injection, e.g.\n"
        "                    'stage.calibration:throw-transient:p=0.05,\n"
        "                    seed=7' (see also SDRBIST_FAULT_SPEC)\n"
        "  --json PATH       write the full campaign JSON\n"
        "  --csv PATH        write the coverage-matrix CSV\n"
        "  --scenarios PATH  write the per-scenario CSV\n"
        "  --jsonl PATH      stream per-scenario JSONL rows as they\n"
        "                    complete (grid-order-restored on exit)\n"
        "  --no-timing       suppress measured fields (timing, thread and\n"
        "                    cache counters) in every export, making\n"
        "                    artefacts byte-comparable across runs\n"
        "  --trace-out PATH  record a Chrome trace (load in chrome://tracing\n"
        "                    or https://ui.perfetto.dev): one span per\n"
        "                    pipeline stage, scenario, store access, shard\n"
        "                    I/O and worker task/idle interval\n"
        "  --counters        print the telemetry counter and per-category\n"
        "                    span tables after the run\n"
        "  --build-info      print build provenance (compiler, build type,\n"
        "                    SIMD backends, format versions) and exit\n"
        "  --list-presets    print the preset catalogue and exit\n"
        "  --list-backends   print the SIMD kernel backends and exit\n"
        "  --help            this text\n"
        "exit codes: 0 success, 1 artefact write failure, 2 usage error,\n"
        "            3 campaign finished but scenarios failed\n";
}

/// Parse "host:port" for --serve/--worker; exits with a usage error when
/// malformed.  Numeric IPv4 hosts only (the service is a loopback/LAN
/// fleet tool, not an internet endpoint).
std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& option,
                                                     const std::string& text) {
    const auto colon = text.rfind(':');
    if (colon != std::string::npos && colon > 0) {
        const std::string host = text.substr(0, colon);
        const std::uint64_t port =
            parse_count(option, text.substr(colon + 1));
        if (port <= 65535)
            return {host, static_cast<std::uint16_t>(port)};
    }
    std::cerr << option << " needs HOST:PORT, got '" << text << "'\n";
    std::exit(2);
}

/// Parse "i/N" into a shard_spec; exits with a usage error when malformed.
campaign::shard_spec parse_shard(const std::string& text) {
    const auto slash = text.find('/');
    if (slash != std::string::npos) {
        campaign::shard_spec shard;
        shard.index = parse_count("--shard", text.substr(0, slash));
        shard.count = parse_count("--shard", text.substr(slash + 1));
        if (shard.count >= 1 && shard.index < shard.count)
            return shard;
    }
    std::cerr << "--shard needs i/N with 0 <= i < N, got '" << text << "'\n";
    std::exit(2);
}

campaign::reseed_policy parse_reseed(const std::string& text) {
    if (text == "device")
        return campaign::reseed_policy::device;
    if (text == "probes")
        return campaign::reseed_policy::probes;
    if (text == "off")
        return campaign::reseed_policy::off;
    std::cerr << "--reseed needs device|probes|off, got '" << text << "'\n";
    std::exit(2);
}

std::optional<bist::stage> parse_stage_sharing(const std::string& text) {
    if (text == "off")
        return std::nullopt;
    for (const bist::stage s :
         {bist::stage::stimulus, bist::stage::tx_capture,
          bist::stage::calibration, bist::stage::reconstruction})
        if (bist::to_string(s) == text)
            return s;
    std::cerr << "--stage-sharing needs off|stimulus|tx-capture|calibration|"
                 "reconstruction, got '"
              << text << "'\n";
    std::exit(2);
}

int list_presets() {
    text_table table({"preset", "modulation", "symbol rate [Msym/s]",
                      "carrier [MHz]", "mask"});
    table.set_title("standard preset catalogue");
    for (const auto& p : waveform::standard_catalogue())
        table.add_row({p.name, waveform::to_string(p.stimulus.mod),
                       text_table::num(p.stimulus.symbol_rate / 1e6, 3),
                       text_table::num(p.default_carrier_hz / 1e6, 1),
                       p.mask.name()});
    table.print(std::cout);
    return 0;
}

int list_backends() {
    const auto& active = simd::kernel_backend::select();
    std::cout << "SIMD kernel backends (compiled in):\n";
    for (const auto* ops : simd::kernel_backend::compiled()) {
        std::cout << "  " << ops->name;
        if (!simd::kernel_backend::supported(*ops))
            std::cout << "  [not supported by this CPU]";
        else if (ops->name == std::string_view(active.name))
            std::cout << "  [active]";
        std::cout << "\n";
    }
    return 0;
}

/// Build provenance plus the campaign-layer format versions — the
/// `--build-info` block and the `otherData` of every exported trace.
std::vector<std::pair<std::string, std::string>> provenance_fields() {
    auto fields = build_info_fields();
    fields.emplace_back("canonical_config_version",
                        std::to_string(bist::canonical_config_version));
    fields.emplace_back("stage_canonical_version",
                        std::to_string(bist::stage_canonical_version));
    fields.emplace_back("store_format_version",
                        std::to_string(campaign::store_format_version));
    fields.emplace_back("shard_file_version",
                        std::to_string(campaign::shard_file_version));
    return fields;
}

int build_info_cmd() {
    const auto fields = provenance_fields();
    std::size_t width = 0;
    for (const auto& [key, value] : fields)
        width = std::max(width, key.size());
    std::cout << "build info:\n";
    for (const auto& [key, value] : fields)
        std::cout << "  " << key << ':'
                  << std::string(width - key.size() + 2, ' ') << value
                  << "\n";
    return 0;
}

/// `--counters` report: the monotonic counters, then the per-category span
/// aggregates of this run's window (the summary attached to the result).
void print_telemetry(const campaign::campaign_result& result) {
    const auto counts = telemetry::counters();
    text_table counters({"counter", "value"});
    counters.set_title("telemetry counters");
    for (std::size_t i = 0; i < telemetry::counter_count; ++i)
        counters.add_row(
            {telemetry::to_string(static_cast<telemetry::counter>(i)),
             std::to_string(counts[i])});
    std::cout << "\n";
    counters.print(std::cout);

    text_table spans(
        {"category", "count", "total [ns]", "mean [ns]", "max [ns]"});
    spans.set_title("telemetry spans");
    for (std::size_t i = 0; i < telemetry::category_count; ++i) {
        const auto& c = result.telemetry_summary.categories[i];
        spans.add_row(
            {telemetry::to_string(static_cast<telemetry::category>(i)),
             std::to_string(c.count), std::to_string(c.total_ns),
             text_table::num(c.mean_ns(), 1), std::to_string(c.max_ns)});
    }
    std::cout << "\n";
    spans.print(std::cout);
}

int cache_stats_cmd(const std::string& dir) {
    const auto stats = campaign::scan_store_dir(dir);
    std::cout << "store " << dir << ": " << stats.files() << " files, "
              << stats.bytes << " bytes\n"
              << "  entries (current version): " << stats.entries << "\n"
              << "  version-skewed:            " << stats.stale << "\n"
              << "  corrupt:                   " << stats.corrupt << "\n"
              << "  stray temp files:          " << stats.stray_tmp << "\n";
    if (!stats.version_histogram.empty()) {
        std::cout << "  version histogram:\n";
        for (const auto& [version, count] : stats.version_histogram)
            std::cout << "    v" << version << ": " << count << "\n";
    }
    return 0;
}

int cache_gc_cmd(const std::string& dir, campaign::store_gc_policy policy) {
    const auto gc = campaign::gc_store_dir(dir, policy);
    std::cout << "cache-gc " << dir << ": scanned " << gc.scanned
              << ", removed " << gc.removed << ", evicted " << gc.evicted
              << " (" << gc.bytes_freed << " bytes freed), kept " << gc.kept
              << "\n";
    return 0;
}

int run_cli(int argc, char** argv);

} // namespace

int main(int argc, char** argv) {
    try {
        return run_cli(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}

namespace {

/// Everything after the run/merge: summary table, stdout stats, exports.
int report_and_export(const campaign::campaign_result& result,
                      const campaign::export_options& opt,
                      const std::string& json_path,
                      const std::string& csv_path,
                      const std::string& scenarios_path,
                      const std::string& shard_out_path,
                      const std::string& jsonl_path = {},
                      const std::string& trace_out_path = {},
                      bool show_counters = false) {
    campaign::coverage_table(result).print(std::cout);
    std::cout << "\nyield (golden pass rate):  "
              << text_table::num(100.0 * result.yield(), 1) << " %  ("
              << result.golden_passes << "/" << result.golden_runs << ")\n"
              << "fault coverage:            "
              << text_table::num(100.0 * result.coverage(), 1) << " %  ("
              << result.fault_detected << "/" << result.fault_runs << ")\n"
              << "escape rate:               "
              << text_table::num(100.0 * result.escape_rate(), 1) << " %\n"
              << "threads:                   " << result.threads_used << "\n"
              << "wall time:                 "
              << text_table::num(result.wall_s, 2) << " s  ("
              << text_table::num(result.scenarios_per_second(), 2)
              << " scenarios/s)\n";
    if (result.shard_count > 1)
        std::cout << "shard:                     " << result.shard_index
                  << "/" << result.shard_count << "  ("
                  << result.results.size() << " of " << result.grid_size
                  << " scenarios)\n";
    // Format relied upon by CI (warm-run assertion greps these lines).
    std::cout << "cache:                     " << result.cache_hits
              << " hits, " << result.cache_misses << " misses\n"
              << "stage reuse:               " << result.stage_reuse_hits
              << " adopted, " << result.stage_reuse_computes
              << " computed\n"
              << "store:                     " << result.store_hits
              << " hits, " << result.store_misses << " misses, "
              << result.store_bytes << " bytes\n"
              << "recovery:                  " << result.scenario_retries
              << " retried, " << result.scenario_gave_up << " gave up, "
              << result.resumed << " resumed, " << result.quarantined
              << " quarantined\n";
    if (show_counters)
        print_telemetry(result);

    bool engine_errors = false;
    for (const auto& r : result.results)
        if (r.engine_error) {
            engine_errors = true;
            std::cerr << "engine error in scenario " << r.sc.index << " ("
                      << r.sc.preset_name << ", "
                      << bist::to_string(r.sc.fault) << "): " << r.error
                      << "\n";
        }

    auto write_file = [](const std::string& path, const std::string& body) {
        std::ofstream out(path, std::ios::binary);
        out << body;
        out.flush();
        if (!out.good()) {
            std::cerr << "cannot write " << path << "\n";
            std::exit(1);
        }
        std::cout << "wrote " << path << "\n";
    };
    if (!json_path.empty())
        write_file(json_path, campaign::to_json(result, opt));
    if (!csv_path.empty())
        write_file(csv_path, campaign::coverage_csv(result));
    if (!scenarios_path.empty())
        write_file(scenarios_path, campaign::scenarios_csv(result, opt));
    // Only for results without a live jsonl_stream (merge mode): the
    // one-shot exporter is byte-identical to a finalised stream.
    if (!jsonl_path.empty())
        write_file(jsonl_path, campaign::scenarios_jsonl(result, opt));
    if (!shard_out_path.empty()) {
        if (!campaign::write_result_file(shard_out_path, result)) {
            std::cerr << "cannot write " << shard_out_path << "\n";
            std::exit(1);
        }
        std::cout << "wrote " << shard_out_path << "\n";
    }
    // Last, so the trace also covers the export spans above.
    if (!trace_out_path.empty()) {
        if (!telemetry::write_chrome_trace(trace_out_path,
                                           provenance_fields())) {
            std::cerr << "cannot write " << trace_out_path << "\n";
            std::exit(1);
        }
        std::cout << "wrote " << trace_out_path << " ("
                  << telemetry::trace_event_count() << " events)\n";
    }

    // 3, not 1: distinguishes "campaign completed but scenarios failed"
    // from an artefact write failure so retry wrappers can tell them apart.
    return engine_errors ? 3 : 0;
}

int run_cli(int argc, char** argv) {
    // Store maintenance subcommands.
    if (argc >= 2 && (std::string(argv[1]) == "cache-stats" ||
                      std::string(argv[1]) == "cache-gc")) {
        const std::string sub = argv[1];
        const bool gc = sub == "cache-gc";
        campaign::store_gc_policy policy;
        std::string dir;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::cerr << arg << " needs a value\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            if (gc && arg == "--max-bytes") {
                policy.max_bytes = parse_count(arg, value());
            } else if (gc && arg == "--max-age-s") {
                policy.max_age_s = parse_count(arg, value());
            } else if (gc && arg == "--max-entries") {
                policy.max_entries = parse_count(arg, value());
            } else if (dir.empty() && !arg.empty() && arg[0] != '-') {
                dir = arg;
            } else {
                std::cerr << sub << ": unexpected argument '" << arg << "'\n";
                return 2;
            }
        }
        if (dir.empty()) {
            std::cerr << sub << " needs a directory\n";
            return 2;
        }
        return gc ? cache_gc_cmd(dir, policy) : cache_stats_cmd(dir);
    }

    campaign::campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2; // PA-health floor so gain faults count

    std::string json_path, csv_path, scenarios_path, jsonl_path,
        shard_out_path, trace_out_path;
    std::vector<std::string> preset_names, fault_names, merge_paths;
    campaign::service::service_config svc;
    bool serve_mode = false;
    bool worker_mode = false;
    bool merge_mode = false;
    bool salvage_mode = false;
    bool show_counters = false;
    bool show_build_info = false;
    campaign::export_options export_opt;
    // The CLI always appends the JSONL summary row; the library default
    // stays off for scenario-rows-only consumers.
    export_opt.jsonl_summary = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list-presets") {
            return list_presets();
        } else if (arg == "--list-backends") {
            return list_backends();
        } else if (arg == "--presets") {
            preset_names = split_csv_list(value());
        } else if (arg == "--faults") {
            fault_names = split_csv_list(value());
        } else if (arg == "--trials") {
            cfg.trials = parse_count(arg, value());
        } else if (arg == "--reseed") {
            cfg.reseed = parse_reseed(value());
        } else if (arg == "--threads") {
            cfg.threads = parse_count(arg, value());
        } else if (arg == "--seed") {
            cfg.seed = parse_count(arg, value(), 0);
        } else if (arg == "--jitter-sigma") {
            cfg.perturb.jitter_rel_sigma = parse_double(arg, value());
        } else if (arg == "--dcde-sigma-ps") {
            cfg.perturb.dcde_static_sigma_s = parse_double(arg, value()) * ps;
        } else if (arg == "--backend") {
            // Force before any engine object captures the dispatched table;
            // unknown/unsupported names throw (caught in main, exit 2).
            simd::kernel_backend::force(value());
        } else if (arg == "--stage-sharing") {
            cfg.stage_sharing = parse_stage_sharing(value());
        } else if (arg == "--shard") {
            cfg.shard = parse_shard(value());
        } else if (arg == "--serve") {
            serve_mode = true;
            std::tie(svc.host, svc.port) = parse_endpoint(arg, value());
        } else if (arg == "--worker") {
            worker_mode = true;
            std::tie(svc.host, svc.port) = parse_endpoint(arg, value());
        } else if (arg == "--lease-size") {
            svc.lease_size = parse_count(arg, value());
            if (svc.lease_size == 0) {
                std::cerr << "--lease-size must be >= 1\n";
                return 2;
            }
        } else if (arg == "--heartbeat-s") {
            svc.heartbeat_s = parse_double(arg, value());
            if (!(svc.heartbeat_s > 0.0 &&
                  svc.heartbeat_s <= campaign::service::max_heartbeat_s)) {
                std::cerr << "--heartbeat-s must be in (0, 86400]\n";
                return 2;
            }
        } else if (arg == "--shard-out") {
            shard_out_path = value();
        } else if (arg == "--merge") {
            merge_mode = true;
        } else if (arg == "--salvage") {
            salvage_mode = true;
        } else if (arg == "--store") {
            cfg.cache_dir = cfg.stage_store_dir = value();
        } else if (arg == "--max-retries") {
            cfg.max_retries = parse_count(arg, value());
        } else if (arg == "--retry-backoff-ms") {
            cfg.retry_backoff_ms = parse_double(arg, value());
        } else if (arg == "--deadline-s") {
            cfg.scenario_deadline_s = parse_double(arg, value());
        } else if (arg == "--journal") {
            cfg.journal_path = value();
        } else if (arg == "--resume") {
            cfg.journal_path = value();
            cfg.resume = true;
        } else if (arg == "--fault-spec") {
            try {
                fault_injection::arm(value());
            } catch (const std::exception& e) {
                std::cerr << "--fault-spec: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--scenarios") {
            scenarios_path = value();
        } else if (arg == "--jsonl") {
            jsonl_path = value();
        } else if (arg == "--no-timing") {
            export_opt.include_timing = false;
        } else if (arg == "--trace-out") {
            trace_out_path = value();
        } else if (arg == "--counters") {
            show_counters = true;
        } else if (arg == "--build-info") {
            show_build_info = true;
        } else if (merge_mode && !arg.empty() && arg[0] != '-') {
            merge_paths.push_back(arg);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }

    // After parsing, so the block reflects a --backend force on this
    // command line.
    if (show_build_info)
        return build_info_cmd();

    // ---- service-mode flag compatibility ----------------------------------
    if (serve_mode && worker_mode) {
        std::cerr << "--serve and --worker are mutually exclusive\n";
        return 2;
    }
    if ((serve_mode || worker_mode) && merge_mode) {
        std::cerr << "--merge cannot combine with --serve/--worker\n";
        return 2;
    }
    if (serve_mode &&
        (cfg.shard.count > 1 || !cfg.journal_path.empty() || cfg.resume)) {
        std::cerr << "--serve owns the grid partition; --shard, --journal "
                     "and --resume apply to workers\n";
        return 2;
    }
    if (worker_mode &&
        (!json_path.empty() || !csv_path.empty() || !scenarios_path.empty() ||
         !jsonl_path.empty() || !shard_out_path.empty() ||
         cfg.shard.count > 1)) {
        std::cerr << "--worker streams results to its coordinator; export "
                     "flags and --shard belong on --serve\n";
        return 2;
    }

    // Telemetry on when anything consumes it.  Counters/aggregates always
    // under enable; trace-event buffering only with --trace-out.
    if (!trace_out_path.empty() || show_counters)
        telemetry::enable(/*capture_trace=*/!trace_out_path.empty());

    // ---- merge mode: recombine shard result files, no engine runs ---------
    if (merge_mode) {
        if (merge_paths.size() < 2) {
            std::cerr << "--merge needs at least two shard files\n";
            return 2;
        }
        campaign::campaign_result merged;
        if (salvage_mode) {
            campaign::salvage_stats stats;
            const auto shards =
                campaign::read_result_files_salvage(merge_paths, stats);
            if (shards.empty()) {
                std::cerr << "--salvage: no readable shard files\n";
                return 3;
            }
            merged = campaign::merge_results_salvage(shards, stats);
            std::cout << "salvage-merged " << shards.size() << " of "
                      << merge_paths.size() << " shards: "
                      << merged.scenario_count() << " scenarios ("
                      << stats.quarantined_files << " files quarantined, "
                      << stats.skipped_shards << " shards skipped, "
                      << stats.duplicate_rows << " duplicate rows dropped, "
                      << stats.missing_rows << " rows missing)\n";
            for (const auto& note : stats.notes)
                std::cout << "  salvage: " << note << "\n";
            std::cout << "\n";
        } else {
            std::vector<campaign::campaign_result> shards;
            shards.reserve(merge_paths.size());
            for (const auto& path : merge_paths)
                shards.push_back(campaign::read_result_file(path));
            merged = campaign::merge_results(shards);
            std::cout << "merged " << merge_paths.size() << " shards: "
                      << merged.scenario_count() << " scenarios\n\n";
        }
        return report_and_export(merged, export_opt, json_path, csv_path,
                                 scenarios_path, shard_out_path, jsonl_path,
                                 trace_out_path, show_counters);
    }

    if (!preset_names.empty()) {
        cfg.presets.clear();
        for (const auto& name : preset_names)
            cfg.presets.push_back(waveform::find_preset(name));
    }
    if (!fault_names.empty()) {
        cfg.faults.clear();
        for (const auto& name : fault_names)
            cfg.faults.push_back(fault_by_name(name));
    }

    const std::size_t scenario_count =
        cfg.presets.size() * cfg.faults.size() * cfg.trials;
    std::cout << "campaign: " << cfg.presets.size() << " presets x "
              << cfg.faults.size() << " faults x " << cfg.trials
              << " trials = " << scenario_count << " scenarios"
              << "  [backend " << simd::kernel_backend::select().name << "]";
    if (cfg.shard.count > 1)
        std::cout << "  (shard " << cfg.shard.index << "/" << cfg.shard.count
                  << ")";
    if (serve_mode)
        std::cout << "  (coordinator)";
    if (worker_mode)
        std::cout << "  (worker)";
    std::cout << "\n\n" << std::flush;

    // ---- worker mode: grade leases for a coordinator ----------------------
    if (worker_mode) {
        try {
            const auto wr = campaign::service::run_worker(cfg, svc);
            std::cout << "worker: " << wr.leases << " leases completed, "
                      << wr.stale << " stale, " << wr.rows
                      << " rows streamed, " << wr.heartbeats
                      << " heartbeats\n";
            return 0;
        } catch (const fault_injection::transient_fault& e) {
            // Lost (or never found) the coordinator: an expected event in
            // the service failure model, not a usage error.
            std::cerr << "worker: " << e.what() << "\n";
            return 1;
        }
    }

    std::unique_ptr<campaign::jsonl_stream> jsonl;
    campaign::run_hooks hooks;
    if (!jsonl_path.empty()) {
        jsonl = std::make_unique<campaign::jsonl_stream>(jsonl_path,
                                                         export_opt);
        hooks.on_scenario = [&](const campaign::scenario_result& r) {
            jsonl->append(r);
        };
    }

    // ---- serve mode: coordinate a worker fleet ----------------------------
    if (serve_mode) {
        campaign::service::coordinator coord(cfg, svc);
        std::cout << "service: listening on " << svc.host << ":"
                  << coord.port() << "  (lease size " << svc.lease_size
                  << ", heartbeat " << svc.heartbeat_s << " s, re-queue after "
                  << svc.timeout() << " s silent)\n"
                  << std::flush;
        const auto report = coord.serve(hooks);
        if (jsonl) {
            jsonl->finalise(report.result);
            std::cout << "wrote " << jsonl_path << " (" << jsonl->rows()
                      << " rows, streamed)\n";
        }
        // Format relied upon by CI (requeue-count assertion greps this).
        std::cout << "service: " << report.leases.leases
                  << " leases granted, " << report.leases.requeues
                  << " re-queued, " << report.leases.heartbeats
                  << " heartbeats, " << report.workers_seen << " workers, "
                  << report.dropped_connections << " dropped\n\n";
        return report_and_export(report.result, export_opt, json_path,
                                 csv_path, scenarios_path, shard_out_path, {},
                                 trace_out_path, show_counters);
    }

    const campaign::campaign_runner runner(cfg);
    const auto result = runner.run(hooks);
    if (jsonl) {
        jsonl->finalise(result);
        std::cout << "wrote " << jsonl_path << " (" << jsonl->rows()
                  << " rows, streamed)\n";
    }

    return report_and_export(result, export_opt, json_path, csv_path,
                             scenarios_path, shard_out_path, {},
                             trace_out_path, show_counters);
}

} // namespace
