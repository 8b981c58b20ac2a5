/// \file bench_util.hpp
/// \brief Shared scenario builders for the figure/table reproduction
///        harnesses: the paper's evaluation setup (QPSK/SRRC at 1 GHz,
///        10-bit BP-TIADC at 90 + 45 MHz, 3 ps jitter, D = 180 ps) and the
///        reconstruction-error evaluator used by Table I.
#pragma once

#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bist/pipeline.hpp"
#include "campaign/export.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace sdrbist::benchutil {

// ---------------------------------------------------------------------------
// Machine-readable bench output.
//
// Perf benches print one `BENCH_JSON {...}` line per result so dashboards
// and future PRs can track the trajectory with
// `./bench_x | grep ^BENCH_JSON | cut -d' ' -f2-`.  Keys are emitted in
// insertion order, numbers in shortest round-trip form.
// ---------------------------------------------------------------------------

/// One flat JSON record assembled field by field.
class json_record {
public:
    json_record& add(const std::string& key, double value) {
        return add_raw(key, campaign::json_number(value));
    }
    json_record& add(const std::string& key, std::size_t value) {
        return add_raw(key, std::to_string(value));
    }
    json_record& add(const std::string& key, const std::string& value) {
        return add_raw(key, campaign::json_quote(value));
    }
    /// Append a pre-rendered JSON value (nested array/object).
    json_record& add_raw(const std::string& key, const std::string& raw) {
        fields_.emplace_back(key, raw);
        return *this;
    }
    /// Append all fields of another record.
    json_record& merge(const json_record& other) {
        fields_.insert(fields_.end(), other.fields_.begin(),
                       other.fields_.end());
        return *this;
    }
    [[nodiscard]] std::string str() const {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ',';
            out += campaign::json_quote(fields_[i].first) + ":" +
                   fields_[i].second;
        }
        return out + "}";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Print the canonical machine-readable line for one bench result.
inline void emit_bench_json(const std::string& bench_name,
                            const json_record& record,
                            std::ostream& os = std::cout) {
    json_record line;
    line.add("bench", bench_name);
    line.merge(record);
    os << "BENCH_JSON " << line.str() << "\n";
}

/// One fully-executed paper-configuration BIST run: the session holds the
/// configuration and every stage's output.
struct paper_run {
    bist::bist_session session;
    bist::bist_report report;
};

/// Execute the default (paper) configuration and keep every stage output.
inline paper_run run_paper_engine(
    const std::function<void(bist::bist_config&)>& tweak = {}) {
    bist::bist_config config;
    config.tiadc.quant.full_scale = 2.0;
    if (tweak)
        tweak(config);
    paper_run r{bist::bist_session(std::move(config)), {}};
    r.session.run();
    r.report = r.session.report();
    return r;
}

/// Relative RMS error between the reconstruction of the estimation capture
/// under hypothesis `d_hat` and the true (analog) capture-path signal —
/// the paper's Δε(f^T_D̂(t)) column of Table I.
inline double reconstruction_rel_error(const paper_run& run, double d_hat,
                                       std::size_t n_eval = 400,
                                       std::uint64_t seed = 0xE7A1) {
    const auto& config = run.session.config();
    const auto& tx = run.session.tx_capture();
    const auto& cap = tx.capture.fast;
    const sampling::pnbs_reconstructor recon(
        cap.even, cap.odd, cap.period_s, cap.t_start, tx.capture.band_fast,
        d_hat, config.lms.recon);

    rng gen(seed);
    std::vector<double> ref(n_eval), est(n_eval);
    const double scale = config.auto_range ? tx.ranging.input_scale : 1.0;
    for (std::size_t i = 0; i < n_eval; ++i) {
        const double t = gen.uniform(recon.valid_begin(), recon.valid_end());
        ref[i] = scale * tx.capture_input->value(t);
        est[i] = recon.value(t);
    }
    return relative_rms_error(ref, est);
}

} // namespace sdrbist::benchutil
