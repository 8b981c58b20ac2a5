/// \file main.cpp
/// \brief Benchmark driver binary: runs one workload and prints its
///        metrics.  Usually started through `benchmark/run.py`, which
///        builds it first.
///
///   sdrbist_benchmark --workload NAME --seed N --seconds S --trace 0|1
///                     [--work-dir D] [--reference-dir D] [--trace-out F]
///                     [--commit SHA] [--record-reference] [--setup-only]
///
/// Standard output ends with one JSON object
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// preceded by a `BENCH_RECORD {...}` line carrying the same metrics plus
/// the host fingerprint and which counts are exact.  Exit code 0 only when
/// the correctness gate passed.  With `--setup-only` the binary sets the
/// workload up and prints only its set-up time in seconds.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/export.hpp"
#include "core/build_info.hpp"
#include "core/simd/kernel_backend.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using sdrbist::campaign::json_number;
using sdrbist::campaign::json_quote;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "sdrbist_benchmark: " << why
              << "\nusage: sdrbist_benchmark --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir D] [--reference-dir D] "
                 "[--trace-out F] [--commit SHA] [--record-reference] "
                 "[--setup-only]\n";
    std::exit(2);
}

/// Host fingerprint stamped into every record: results from different
/// hosts, backends or builds must not be compared.
std::vector<std::pair<std::string, std::string>>
fingerprint(const std::string& commit) {
    std::vector<std::pair<std::string, std::string>> fp;
    fp.emplace_back("nproc",
                    std::to_string(std::thread::hardware_concurrency()));
    fp.emplace_back("simd", sdrbist::simd::kernel_backend::select().name);
    for (const auto& [key, value] : sdrbist::build_info_fields())
        if (key == "compiler" || key == "build_type")
            fp.emplace_back(key, value);
    fp.emplace_back("commit", commit.empty() ? "unknown" : commit);
    return fp;
}

/// `{name: {value, unit}}`; with `mark_exact`, exact counts also carry
/// `"exact": true` (compare.py reads the flag).
std::string metrics_json(const std::vector<bench::metric>& metrics,
                         bool mark_exact) {
    std::string out = "{";
    for (const auto& m : metrics) {
        if (out.size() > 1)
            out += ',';
        out += json_quote(m.name) + ":{\"value\":" + json_number(m.value) +
               ",\"unit\":" + json_quote(m.unit) +
               (mark_exact && m.exact ? ",\"exact\":true}" : "}");
    }
    return out + "}";
}

std::string strings_json(const std::vector<std::string>& items) {
    std::string out = "[";
    for (const auto& s : items) {
        if (out.size() > 1)
            out += ',';
        out += json_quote(s);
    }
    return out + "]";
}

} // namespace

int main(int argc, char** argv) {
    bench::options opt;
    std::string commit;
    bool trace_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                trace_given = true;
            } else if (arg == "--work-dir")
                opt.work_dir = value();
            else if (arg == "--reference-dir")
                opt.reference_dir = value();
            else if (arg == "--trace-out")
                opt.trace_out = value();
            else if (arg == "--commit")
                commit = value();
            else if (arg == "--record-reference")
                opt.record_reference = true;
            else if (arg == "--setup-only")
                opt.setup_only = true;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }

    try {
        if (opt.record_reference) {
            if (opt.reference_dir.empty())
                usage("--record-reference needs --reference-dir");
            bench::record_reference(opt);
            return 0;
        }
        const auto& names = bench::workload_names();
        if (std::find(names.begin(), names.end(), opt.workload) == names.end())
            usage("unknown workload '" + opt.workload + "'");
        if (!trace_given || !(opt.seconds > 0.0))
            usage("--trace and a positive --seconds are required");

        bench::span_recorder rec;
        bench::outcome out = bench::run_workload(opt, rec);
        if (opt.setup_only) {
            std::cout << json_number(out.setup_s) << std::endl;
            return 0;
        }
        auto& metrics = opt.trace ? out.per_layer : out.end_to_end;
        for (const auto& m : metrics)
            if (!std::isfinite(m.value))
                out.gate_failures.push_back("metric " + m.name +
                                            " is not finite");

        const auto fp = fingerprint(commit);
        if (opt.trace && !opt.trace_out.empty()) {
            std::ofstream(opt.trace_out) << rec.chrome_trace_json(fp);
            std::cerr << "trace written to " << opt.trace_out << "\n";
        }
        for (const auto& m : out.unadjusted)
            std::cerr << "unadjusted " << m.name << " = "
                      << json_number(m.value) << " " << m.unit << "\n";
        for (const auto& w : out.warnings)
            std::cerr << "WARNING: " << w << "\n";
        for (const auto& f : out.gate_failures)
            std::cerr << "CORRECTNESS FAILURE: " << f << "\n";

        const bool correct = out.gate_failures.empty();
        std::string fp_json = "{";
        for (const auto& [key, value] : fp) {
            if (fp_json.size() > 1)
                fp_json += ',';
            fp_json += json_quote(key) + ":" + json_quote(value);
        }
        fp_json += "}";
        std::cout << "BENCH_RECORD {\"workload\":" << json_quote(opt.workload)
                  << ",\"seed\":" << opt.seed
                  << ",\"trace\":" << (opt.trace ? 1 : 0)
                  << ",\"seconds\":" << json_number(opt.seconds)
                  << ",\"fingerprint\":" << fp_json
                  << ",\"correct\":" << (correct ? "true" : "false")
                  << ",\"attempted\":" << out.attempted
                  << ",\"failed\":" << out.failed
                  << ",\"metrics\":" << metrics_json(metrics, true)
                  << ",\"unadjusted\":" << metrics_json(out.unadjusted, false)
                  << ",\"warnings\":" << strings_json(out.warnings)
                  << ",\"gate_failures\":" << strings_json(out.gate_failures)
                  << "}\n";
        std::cout << "{\"correct\":" << (correct ? "true" : "false")
                  << ",\"attempted\":" << out.attempted
                  << ",\"failed\":" << out.failed
                  << ",\"metrics\":" << metrics_json(metrics, false) << "}"
                  << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "sdrbist_benchmark: " << e.what() << "\n";
        return 2;
    }
}
