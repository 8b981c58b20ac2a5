/// \file abl_jitter_sweep.cpp
/// \brief Ablation: sampling-clock jitter (the paper fixes 3 ps rms).
///        Sweeps the jitter and reports skew-estimation error and the
///        reconstruction error floor.
///
/// Expected shape: the reconstruction floor scales linearly with jitter
/// (error ≈ 2π·fc·σ_j); the LMS estimate degrades gracefully because the
/// cost averages N probes.
#include <iostream>

#include "bench_util.hpp"
#include "calib/lms.hpp"
#include "core/table.hpp"

int main() {
    using namespace sdrbist;

    std::cout << "Ablation — clock jitter (paper: 3 ps rms)\n\n";
    text_table table({"jitter [ps rms]", "|D-hat - D| [ps]",
                      "recon error [%]", "analytic floor 2*pi*fc*sigma [%]"});
    for (double jit_ps : {0.0, 1.0, 3.0, 6.0, 10.0}) {
        const auto run = benchutil::run_paper_engine(
            [&](bist::bist_config& c) {
                c.tiadc.jitter_rms_s = jit_ps * ps;
            });
        const double d_true =
            run.session.tx_capture().capture.fast.true_delay_s;
        const double err = std::abs(run.report.skew.d_hat - d_true);
        const double rec =
            benchutil::reconstruction_rel_error(run, run.report.skew.d_hat);
        const double analytic = two_pi *
                                run.session.config().preset.default_carrier_hz *
                                jit_ps * ps;
        table.add_row({text_table::num(jit_ps, 1),
                       text_table::num(err / ps, 3),
                       text_table::num(100.0 * rec, 2),
                       text_table::num(100.0 * analytic, 2)});
    }
    table.print(std::cout);
    std::cout << "\nreading: the reconstruction floor tracks the analytic "
                 "jitter noise 2*pi*fc*sigma; skew estimation stays sub-ps "
                 "well past the paper's 3 ps\n";
    return 0;
}
