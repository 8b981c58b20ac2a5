/// \file stages.hpp
/// \brief The typed stages of the BIST pipeline and their output artefacts.
///
/// The paper's flow is explicitly staged: stimulate the Tx, capture the PA
/// output with the re-used Rx ADCs, identify the DCDE time-skew, PNBS-
/// reconstruct the bandpass signal, grade spectrum and modulation quality.
/// This header names those stages and gives each one an explicit output
/// struct, so the pipeline can run them individually, resume after any of
/// them, and — because each stage's inputs are hashable (see
/// config_canonical.hpp) — share upstream stage results across campaign
/// scenarios that only differ downstream.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "adc/tiadc.hpp"
#include "bist/spectrum.hpp"
#include "calib/dual_rate.hpp"
#include "calib/lms.hpp"
#include "rf/tx.hpp"
#include "waveform/evm.hpp"
#include "waveform/mask.hpp"
#include "waveform/standard.hpp"
#include "waveform/tx_metrics.hpp"

namespace sdrbist::bist {

/// The five pipeline stages, in dataflow order.
enum class stage : int {
    stimulus = 0,       ///< test waveforms + identifiable band plan
    tx_capture = 1,     ///< DUT transmission + dual-rate estimation capture
    calibration = 2,    ///< LMS time-skew identification (Algorithm 1)
    reconstruction = 3, ///< wide-band capture + PNBS envelope reconstruction
    grading = 4,        ///< spectrum / EVM / ACPR / power verdicts
};

/// All stages in execution order.
inline constexpr std::array<stage, 5> stage_order{
    stage::stimulus, stage::tx_capture, stage::calibration,
    stage::reconstruction, stage::grading};

/// Position of a stage in the flow (0-based).
[[nodiscard]] constexpr int stage_index(stage s) {
    return static_cast<int>(s);
}

/// Stage name for diagnostics, hashes and CLI options.
[[nodiscard]] std::string to_string(stage s);

/// Stage 1 — stimulus planning.  The graded waveform is the preset's; skew
/// calibration uses a wideband waveform scaled into the slow capture band.
/// The band plan (paper eq. (9) + numerical identifiability) may nudge the
/// BIST carrier when every plan at the nominal carrier is blind.
struct stimulus_output {
    waveform::baseband_waveform stimulus;    ///< the graded waveform
    waveform::baseband_waveform calibration; ///< the skew-calibration one
    waveform::generator_config calibration_config{}; ///< materialised
    double occupied_bw_calibration_hz = 0.0;
    double occupied_bw_graded_hz = 0.0;
    calib::band_plan plan{};           ///< identifiable band placement
    double carrier_hz = 0.0;           ///< BIST test carrier (maybe nudged)
    double carrier_nudge_hz = 0.0;     ///< carrier minus the preset nominal
    double plan_discrimination = 0.0;  ///< numerical identifiability
};

/// Stage 2 — transmission and dual-rate estimation capture.  The DUT runs
/// both waveforms on the BIST carrier; the calibration output is captured
/// at both rates through the narrow band-select filter.  Also re-checks
/// the eq. (9) identifiability conditions on the two capture bands.  The
/// stimulus stage's band plan already ensures them, so the check passes;
/// calibration rejects a capture that fails it (say, a forged snapshot)
/// as a contract violation.
struct tx_capture_output {
    rf::tx_output tx_out;             ///< DUT output, graded waveform
    rf::tx_output calibration_tx_out; ///< DUT output, calibration waveform
    /// What the sampler sees during estimation (narrow capture BPF).
    std::shared_ptr<const rf::envelope_passband> capture_input;
    /// What it sees during spectrum grading (graded waveform, wide BPF).
    std::shared_ptr<const rf::envelope_passband> spectrum_input;
    adc::ranging_result ranging{};    ///< estimation-phase ranging
    calib::dual_rate_capture capture{};
    double programmed_delay_s = 0.0;  ///< DCDE target the BIST programmed
    bool dual_rate_conditions_ok = false;
    double max_search_delay_s = 0.0;  ///< m of the search interval ]0, m[
};

/// Stage 3 — LMS time-skew identification over random probe instants.
struct calibration_output {
    std::vector<double> probe_times;
    calib::skew_estimate skew{};
};

/// Stage 4 — spectrum-grading capture (wide filter, fast rate) and PNBS
/// reconstruction with the identified delay.
struct reconstruction_output {
    adc::ranging_result spectrum_ranging{}; ///< grading-phase ranging
    adc::nonuniform_capture spectrum_capture{};
    reconstructed_envelope envelope{};
};

/// Stage 5 — verdicts: spectral mask, ACPR, occupied bandwidth, EVM and
/// the PA output-power floor.
struct grading_output {
    waveform::mask_report mask{};
    waveform::evm_result evm{};
    bool evm_pass = false;
    waveform::acpr_result acpr{};
    double acpr_limit_dbc = 0.0;
    bool acpr_pass = true;
    double occupied_bw_hz = 0.0;
    double measured_output_rms = 0.0;
    double min_output_rms = 0.0;
    bool power_pass = true;
};

} // namespace sdrbist::bist
