/// \file fig6_lms_convergence.cpp
/// \brief Regenerates paper Fig. 6: evolution of the cost function over LMS
///        iterations for starting points D̂0 in {50, 100, 350, 400} ps.
///
/// Expected shape: every trace decays to the jitter/quantisation floor and
/// the estimate lands at D = 180 ps in fewer than 20 iterations.
#include <iostream>

#include "bench_util.hpp"
#include "calib/lms.hpp"
#include "core/table.hpp"

int main() {
    using namespace sdrbist;

    // One paper-configuration capture, shared by all four runs (as in the
    // paper: same data, several starting points).
    const auto run = benchutil::run_paper_engine();
    const auto& capture = run.session.tx_capture().capture;
    const auto& probe_times = run.session.calibration().probe_times;
    const double d_true = capture.fast.true_delay_s;

    std::cout << "Fig. 6 — LMS cost evolution for several D-hat_0 "
                 "(true D = " << d_true / ps << " ps, mu0 = 1e-12)\n\n";

    const std::vector<double> starts{50.0 * ps, 100.0 * ps, 350.0 * ps,
                                     400.0 * ps};
    const calib::lms_skew_estimator estimator(run.session.config().lms);

    std::vector<calib::skew_estimate> results;
    std::size_t max_len = 0;
    for (double d0 : starts) {
        results.push_back(estimator.estimate(capture, d0, probe_times));
        max_len = std::max(max_len, results.back().trace.size());
    }

    text_table table({"iter", "cost (D0=50ps)", "cost (D0=100ps)",
                      "cost (D0=350ps)", "cost (D0=400ps)"});
    for (std::size_t i = 0; i < max_len; ++i) {
        std::vector<std::string> row{std::to_string(i)};
        for (const auto& r : results)
            row.push_back(i < r.trace.size()
                              ? text_table::sci(r.trace[i].cost, 3)
                              : std::string("-"));
        table.add_row(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nfinal estimates:\n";
    text_table fin({"D0 [ps]", "D-hat [ps]", "|D-hat - D| [ps]", "iterations",
                    "converged"});
    for (std::size_t i = 0; i < starts.size(); ++i) {
        fin.add_row({text_table::num(starts[i] / ps, 0),
                     text_table::num(results[i].d_hat / ps, 3),
                     text_table::num(std::abs(results[i].d_hat - d_true) / ps, 3),
                     std::to_string(results[i].iterations),
                     results[i].converged ? "yes" : "no"});
    }
    fin.print(std::cout);
    std::cout << "\npaper claim: converges every time in < 20 iterations\n";
    return 0;
}
