/// \file record_values.hpp
/// \brief Small, fixed values of every persisted record type: the five
///        stage outputs, the scenario report, a scenario row and a shard
///        result.
///
/// Shared by the record-codec suites (the golden record fixtures, the
/// every-member-is-required suite and the mutation suite).  Every value is
/// a plain literal or an exact binary fraction, so the shortest
/// round-trip rendering is identical on every platform and the committed
/// fixtures do not depend on the compiler.  Passband envelopes carry 65
/// samples: the fewest an `envelope_passband` with the default 32
/// interpolator half-taps accepts.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bist/report.hpp"
#include "bist/stages.hpp"
#include "campaign/campaign.hpp"
#include "rf/passband.hpp"

namespace sdrbist::testing {

/// n complex samples on a line: exact in binary, short in decimal.
inline std::vector<std::complex<double>> ramp(std::size_t n) {
    std::vector<std::complex<double>> out;
    for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(0.125 * static_cast<double>(i),
                         -0.0625 * static_cast<double>(i));
    return out;
}

inline constexpr std::size_t small_envelope_samples = 65;

inline bist::bist_report small_report() {
    bist::bist_report r;
    r.preset_name = "paper-qpsk-10M";
    r.carrier_hz = 1.0e9;
    r.skew.d_hat = 1.8e-10;
    r.skew.iterations = 17;
    r.skew.cost_evaluations = 40;
    r.skew.trace = {{1, 2.0e-10, 5.0e-9, 0.5}, {2, 1.9e-10, 4.0e-9, 0.25}};
    r.mask.reference_dbhz = std::numeric_limits<double>::quiet_NaN();
    r.mask.segments.push_back({{10e6, 20e6, -30.0}, -35.5, 5.5, true});
    r.evm.evm_rms = 0.015625;
    r.evm.received_symbols = ramp(3);
    r.acpr.lower_dbc = -42.5;
    return r;
}

inline campaign::scenario_result small_row(std::size_t index) {
    campaign::scenario_result row;
    row.sc.index = index;
    row.sc.preset_name = "paper-qpsk-10M";
    row.sc.fault = bist::fault_kind::none;
    row.sc.seed = 0xFFFFFFFFFFFFFFF5ull - index;
    row.elapsed_s = 0.25;
    row.attempts = 1;
    row.report = small_report();
    return row;
}

inline campaign::campaign_result small_result(std::size_t rows) {
    campaign::campaign_result r;
    r.preset_names = {"paper-qpsk-10M"};
    r.fault_names = {"none"};
    r.trials = rows;
    r.seed = 0x8000000000000001ull;
    r.grid_size = rows;
    r.threads_used = 1;
    for (std::size_t i = 0; i < rows; ++i) {
        r.results.push_back(small_row(i));
        r.results.back().sc.trial = i;
    }
    return r;
}

inline waveform::baseband_waveform small_waveform() {
    waveform::baseband_waveform w;
    w.samples = ramp(6);
    w.sample_rate = 2.0e6;
    w.symbol_rate = 1.0e6;
    w.rolloff = 0.35;
    w.oversample = 2;
    w.shaper_delay_samples = 3;
    w.symbols = ramp(3);
    w.mod = waveform::modulation::dqpsk_pi4;
    return w;
}

inline std::shared_ptr<const rf::envelope_passband> small_passband() {
    return std::make_shared<const rf::envelope_passband>(
        ramp(small_envelope_samples), 1.0e6, 1.0e9);
}

inline rf::tx_output small_tx() {
    rf::tx_output t;
    t.envelope = ramp(small_envelope_samples);
    t.envelope_rate = 1.0e6;
    t.carrier_hz = 1.0e9;
    return t;
}

inline adc::nonuniform_capture small_capture() {
    adc::nonuniform_capture c;
    c.even = {0.5, -0.25, 0.125};
    c.odd = {0.25, 0.5, -0.5};
    c.period_s = 1.0e-8;
    c.true_delay_s = 1.8e-10;
    return c;
}

/// One small value of each of the five stage outputs.
struct small_stage_outputs {
    bist::stimulus_output stimulus;
    bist::tx_capture_output tx_capture;
    bist::calibration_output calibration;
    bist::reconstruction_output reconstruction;
    bist::grading_output grading;

    small_stage_outputs() {
        stimulus.stimulus = small_waveform();
        stimulus.calibration = small_waveform();
        stimulus.calibration_config.mod = waveform::modulation::qam64;
        stimulus.calibration_config.data = waveform::prbs_order::prbs31;
        stimulus.calibration_config.prbs_seed = 0xFFFFFFFFu;
        stimulus.carrier_hz = 1.0e9;

        tx_capture.tx_out = small_tx();
        tx_capture.calibration_tx_out = small_tx();
        tx_capture.capture_input = small_passband();
        tx_capture.spectrum_input = small_passband();
        tx_capture.capture.fast = small_capture();
        tx_capture.capture.slow = small_capture();

        calibration.probe_times = {0.125, 0.25, 0.5};
        calibration.skew = small_report().skew;

        reconstruction.spectrum_capture = small_capture();
        reconstruction.envelope.samples = ramp(5);
        reconstruction.envelope.rate = 1.0e6;

        grading.mask = small_report().mask;
        grading.evm = small_report().evm;
    }
};

} // namespace sdrbist::testing
