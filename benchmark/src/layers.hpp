/// \file layers.hpp
/// \brief Sub-stage attribution from outside the library: each pipeline
///        stage is replayed through the public calls it is made of, with a
///        span around every call, and each replayed output is checked
///        element-exactly against the stage's own.  Also times the
///        persistence layers (stage store, its codecs, scenario cache,
///        journal) on the artefacts a workload produced.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bist/pipeline.hpp"
#include "campaign/campaign.hpp"
#include "spans.hpp"

namespace bench {

namespace bist = sdrbist::bist;
namespace campaign = sdrbist::campaign;

inline constexpr std::size_t stage_count = bist::stage_order.size();

/// Metric-name form of a stage ("tx_capture", not the library's
/// "tx-capture").
const char* stage_key(bist::stage s);

/// What the replays measured, summed over every replayed scenario.
struct replay_totals {
    std::size_t scenarios = 0;
    std::array<double, stage_count> stage_ns{};      ///< run_until spans
    std::array<double, stage_count> attributed_ns{}; ///< sub-stage spans
    std::uint64_t adc_samples = 0;       ///< samples captured (all channels)
    std::uint64_t pnbs_points = 0;       ///< dense-grid points evaluated
    std::uint64_t ddc_input_samples = 0; ///< samples fed to the DDC
    std::uint64_t ddc_decimation = 0;    ///< summed decimation factors
    std::uint64_t lms_cost_evaluations = 0;
    std::uint64_t lms_iterations = 0;
    /// Layers whose replayed output differed from the stage's own; their
    /// numbers no longer describe what the stage ran.
    std::set<std::string> stale;
};

/// Run `config` stage by stage, a "bist.<stage>" span around each
/// `bist_session::run_until`, adding the stage times to `totals`.
std::unique_ptr<bist::bist_session>
run_staged(const bist::bist_config& config, span_recorder& rec,
           std::uint64_t request, replay_totals& totals);

/// Replay every completed stage of `session` through its public sub-steps
/// (capture, PNBS dense grid, DDC, LMS, Welch, mask, EVM, ...) with a span
/// around each, and check the outputs against the session's.
void replay_substages(const bist::bist_session& session, span_recorder& rec,
                      std::uint64_t request, replay_totals& totals);

/// One scenario whose stage outputs the persistence timings use.
struct persisted_row {
    campaign::scenario sc;
    std::shared_ptr<const bist::bist_session> session; ///< fully run
};

/// What the persistence timings measured (times in ns, summed).
struct persistence_totals {
    std::array<double, stage_count> load_ns{};
    std::array<std::size_t, stage_count> loads{};
    double store_ns = 0.0;
    std::size_t stores = 0;
    double decompress_ns = 0.0;
    double parse_ns = 0.0;
    double decode_ns = 0.0;
    std::uint64_t raw_bytes = 0;
    std::size_t decodes = 0;
    double cache_load_ns = 0.0;
    double cache_store_ns = 0.0;
    std::size_t cache_ops = 0;
    double journal_ns = 0.0;
    std::size_t journal_appends = 0;
    std::uint64_t load_misses = 0; ///< store loads that missed
};

/// Time the persistence layers on `rows`: publish every stage into a
/// fresh store under `scratch_dir`; load every stage back from
/// `primed_store` (the workload's own primed store, or the fresh one when
/// empty) through `stage_artefact_store`, then once more split into
/// decompress / JSON parse / stage decode; store and load each report in
/// a scenario cache; append each to a journal.
persistence_totals measure_persistence(const std::vector<persisted_row>& rows,
                                       const std::string& primed_store,
                                       const std::string& scratch_dir,
                                       const std::string& journal_identity,
                                       span_recorder& rec);

} // namespace bench
