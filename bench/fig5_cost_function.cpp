/// \file fig5_cost_function.cpp
/// \brief Regenerates paper Fig. 5: the dual-rate cost function versus the
///        delay hypothesis D̂, swept over [120, 260] ps with the paper's
///        setup (QPSK/SRRC stimulus at 1 GHz, two 10-bit ADCs at 90 MHz +
///        45 MHz, 3 ps rms jitter, D = 180 ps, N = 300 probes, 61 taps).
///
/// Expected shape: a single minimum at D̂ = D = 180 ps.
#include <iostream>

#include "bist/pipeline.hpp"
#include "calib/dual_rate.hpp"
#include "core/table.hpp"
#include "core/units.hpp"

int main() {
    using namespace sdrbist;

    // Paper configuration run through calibration: the sweep needs the
    // estimation capture and the probe instants only.
    bist::bist_config config;
    config.tiadc.quant.full_scale = 2.0;
    bist::bist_session session(config);
    session.run_until(bist::stage::calibration);
    const auto& tx = session.tx_capture();
    const auto& capture = tx.capture;
    const auto& probe_times = session.calibration().probe_times;

    std::cout << "Fig. 5 — cost function vs delay estimate D-hat\n";
    std::cout << "setup: fc = 1 GHz, B = 90 MHz, B1 = 45 MHz, D = "
              << capture.fast.true_delay_s / ps << " ps (true), N = "
              << probe_times.size() << " probes, "
              << config.lms.recon.taps << " taps\n";
    std::cout << "search interval ]0, " << tx.max_search_delay_s / ps
              << " ps[  (paper: m = 483 ps)\n\n";

    const calib::dual_rate_cost cost(capture, probe_times, config.lms.recon);
    text_table table({"D-hat [ps]", "cost function"});
    double best_d = 0.0;
    double best_cost = 1e300;
    for (double d = 120.0 * ps; d <= 260.0 * ps + 1e-15; d += 5.0 * ps) {
        const double c = cost(d);
        if (c < best_cost) {
            best_cost = c;
            best_d = d;
        }
        table.add_row({text_table::num(d / ps, 0), text_table::sci(c, 4)});
    }
    table.print(std::cout);

    std::cout << "\nminimum of the sweep at D-hat = " << best_d / ps
              << " ps (paper: 180 ps)\n";
    return 0;
}
