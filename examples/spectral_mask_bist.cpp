/// \file spectral_mask_bist.cpp
/// \brief Production-test scenario: run the BIST against a golden device
///        and against each catalogued transmitter fault, and show which
///        faults the spectral-mask + EVM verdict catches.
///
/// This is the deployment the paper's introduction motivates: post-
/// manufacture compliance screening of SDR transmitters without external
/// instrumentation.
#include <iostream>

#include "bist/faults.hpp"
#include "bist/pipeline.hpp"
#include "core/table.hpp"
#include "core/units.hpp"

int main() {
    using namespace sdrbist;

    std::cout << "Spectral-mask BIST — golden device vs injected faults\n"
              << "(paper-configuration capture: 2 x 10-bit @ 90 MHz, "
                 "3 ps jitter, D = 180 ps)\n\n";

    text_table table({"device", "skew err [ps]", "worst mask margin [dB]",
                      "EVM [%]", "out RMS [V]", "verdict"});

    bool golden_passed = false;
    for (const auto fault : bist::fault_catalogue()) {
        bist::bist_config config;
        config.tiadc.quant.full_scale = 2.0;
        // The production limit: the golden PA tap delivers ~2 V rms into
        // the capture path; accept no less than 60 % of that.
        config.min_output_rms = 1.2;
        config.tx = bist::inject_fault(config.tx, fault);
        bist::bist_session session(config);
        session.run();
        const bist::bist_report report = session.report();

        const double err = std::abs(
            report.skew.d_hat -
            session.tx_capture().capture.fast.true_delay_s);
        table.add_row({bist::to_string(fault), text_table::num(err / ps, 2),
                       text_table::num(report.mask.worst_margin_db, 1),
                       text_table::num(report.evm.evm_percent(), 2),
                       text_table::num(report.measured_output_rms, 2),
                       report.pass() ? "PASS" : "FAIL"});
        if (fault == bist::fault_kind::none)
            golden_passed = report.pass();
    }
    table.print(std::cout);

    std::cout << "\nexpected: the golden device passes; PA overdrive and "
                 "filter faults trip the mask, modulator faults trip the "
                 "EVM limit, the PA gain drop trips the power floor\n";
    return golden_passed ? 0 : 1;
}
