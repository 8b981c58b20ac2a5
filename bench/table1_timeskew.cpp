/// \file table1_timeskew.cpp
/// \brief Regenerates paper Table I — time-skew estimation analysis.
///
/// Rows 1-2: the sine-fit technique adapted from Jamal et al. 2004 with a
/// known test tone observed at ω0 = 0.4·B and 0.46·B.
/// Rows 3-4: the paper's LMS technique from D̂0 = 50 ps and 400 ps.
/// Columns: |D̂ - D|, |1 - D̂/D|, and the relative reconstruction error
/// Δε of the QPSK test signal rebuilt with each estimate.
///
/// Expected shape: LMS error small and independent of D̂0; sine-fit error
/// depends on ω0 (worse at 0.4·B, where the tone revisits only 5 distinct
/// sample phases and quantisation bias does not average out).
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "calib/jamal.hpp"
#include "calib/lms.hpp"
#include "core/table.hpp"

namespace {

using namespace sdrbist;

// Capture a known RF test tone with the same BP-TIADC and return the
// sine-fit skew estimate.  omega_norm = observed tone frequency / B.
calib::jamal_estimate jamal_row(const benchutil::paper_run& run,
                                double omega_norm) {
    const auto& config = run.session.config();
    const double b = config.tiadc.channel_rate_hz;
    const double fc = config.preset.default_carrier_hz;
    // Choose the RF tone inside the band that folds to omega_norm · B:
    // fc = 11.111·B  =>  fc mod B = 0.1111·B; add the needed offset.
    const double frac_fc = std::fmod(fc / b, 1.0);
    double delta = (omega_norm - frac_fc) * b;
    if (delta < -0.45 * b)
        delta += b;
    const double f_tone = fc + delta;

    rf::multitone_signal tone({{f_tone, 1.0, 0.4}}, 12.0 * us);

    adc::bp_tiadc sampler(config.tiadc);
    sampler.program_delay(config.dcde_target_delay_s);
    sampler.set_input_scale(0.65 * config.tiadc.quant.full_scale);
    const auto cap = sampler.capture(tone, 1.0 * us, 720, /*capture*/ 7);

    calib::jamal_options opt;
    opt.max_delay_s = 483.0 * ps;
    return calib::estimate_skew_sine_fit(cap, f_tone, opt);
}

} // namespace

int main() {
    using namespace sdrbist;

    const auto run = benchutil::run_paper_engine();
    const auto& capture = run.session.tx_capture().capture;
    const auto& probe_times = run.session.calibration().probe_times;
    const double d_true = capture.fast.true_delay_s;

    std::cout << "Table I — time-skew estimation analysis (true D = "
              << d_true / ps << " ps)\n\n";

    text_table table({"technique", "|D-hat - D| [ps]", "|1 - D-hat/D| [%]",
                      "delta-eps(recon) [%]"});

    // Sine-fit (Jamal-adapted) rows.
    for (double omega : {0.40, 0.46}) {
        const auto est = jamal_row(run, omega);
        const double derr = std::abs(est.d_hat - d_true);
        const double rel = std::abs(1.0 - est.d_hat / d_true);
        const double deps = benchutil::reconstruction_rel_error(run, est.d_hat);
        table.add_row({"sine-fit w0=" + text_table::num(omega, 2) + "B",
                       text_table::num(derr / ps, 3),
                       text_table::num(100.0 * rel, 3),
                       text_table::num(100.0 * deps, 2)});
    }

    // LMS rows.
    const calib::lms_skew_estimator estimator(run.session.config().lms);
    for (double d0 : {50.0 * ps, 400.0 * ps}) {
        const auto est = estimator.estimate(capture, d0, probe_times);
        const double derr = std::abs(est.d_hat - d_true);
        const double rel = std::abs(1.0 - est.d_hat / d_true);
        const double deps = benchutil::reconstruction_rel_error(run, est.d_hat);
        table.add_row({"LMS D0=" + text_table::num(d0 / ps, 0) + "ps",
                       text_table::num(derr / ps, 3),
                       text_table::num(100.0 * rel, 3),
                       text_table::num(100.0 * deps, 2)});
    }
    table.print(std::cout);

    std::cout << "\npaper values for comparison:\n"
              << "  w0=0.40B : 5 ps    2.8 %   3.5 %\n"
              << "  w0=0.46B : 0.3 ps  0.1 %   1.0 %\n"
              << "  D0=50 ps : <0.1 ps <0.1 %  0.84 %\n"
              << "  D0=400 ps: <0.1 ps <0.1 %  0.84 %\n"
              << "shape to reproduce: LMS insensitive to D0; sine-fit "
                 "accuracy depends on w0 (0.40B worse); reconstruction floor "
                 "~1 % set by 3 ps jitter + 10-bit quantisation\n";
    return 0;
}
