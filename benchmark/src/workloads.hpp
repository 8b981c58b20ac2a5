/// \file workloads.hpp
/// \brief The benchmark's workloads: what each generates from the seed,
///        how it sets up, what it times, and the correctness gate it runs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace bench {

struct options {
    std::string workload;
    std::uint64_t seed = 11;
    double seconds = 15.0;
    bool trace = false;
    std::string work_dir = "bench_work";   ///< scratch for stores, journals
    std::string reference_dir;             ///< recorded verdicts per seed
    std::string trace_out;                 ///< Chrome trace path (traced runs)
    bool record_reference = false;         ///< write the reference instead
    /// Only set up, then report the set-up time: the mode the other
    /// set-up samples of `setup_s` run in, each in a fresh process.
    bool setup_only = false;
    steady::time_point process_start = steady::now();
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// A count that must repeat exactly at a given workload and seed.
    bool exact = false;
};

struct outcome {
    std::vector<metric> end_to_end; ///< untraced runs
    std::vector<metric> per_layer;  ///< traced runs
    /// The host-adjusted end-to-end times as measured, before the
    /// adjustment, plus the host's slowdown (record and stderr only).
    std::vector<metric> unadjusted;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> gate_failures; ///< any entry fails the run
    std::vector<std::string> warnings;
    double setup_s = 0.0; ///< this process's set-up, from its start
};

/// Names accepted by `--workload`.
const std::vector<std::string>& workload_names();

/// Run one workload (set-up, timed window, gate) and collect its metrics.
outcome run_workload(const options& opt, span_recorder& rec);

/// Compute every grid of the benchmark cold for `opt.seed` and write their
/// verdicts to `<reference_dir>/seed-<seed>.json`.
void record_reference(const options& opt);

} // namespace bench
