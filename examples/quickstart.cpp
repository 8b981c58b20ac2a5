/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the library: generate the paper's QPSK
///        stimulus, run it through the behavioural homodyne transmitter,
///        capture the PA output with the nonuniform BP-TIADC, identify the
///        time-skew with the LMS algorithm and print the BIST verdict.
///
/// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "bist/pipeline.hpp"
#include "core/units.hpp"

int main() {
    using namespace sdrbist;

    std::cout << "sdrbist quickstart — paper configuration\n"
              << "  stimulus : 10 MHz QPSK, SRRC alpha = 0.5\n"
              << "  carrier  : 1 GHz\n"
              << "  BP-TIADC : 2 x 10-bit @ 90 MHz, 3 ps rms jitter\n"
              << "  DCDE     : programmed to 180 ps\n\n";

    // The default bist_config is exactly the paper's evaluation setup.
    bist::bist_config config;
    config.tiadc.quant.full_scale = 2.0; // generous headroom for the PA gain
    // The session runs the five stages and keeps each one's output.
    bist::bist_session session(config);
    session.run();
    const bist::bist_report report = session.report();
    const double true_delay =
        session.tx_capture().capture.fast.true_delay_s;
    const auto& envelope = session.reconstruction().envelope;

    std::cout << report.summary() << "\n";

    std::cout << "details:\n";
    std::cout << "  true DCDE delay (hidden from estimator): "
              << true_delay / ps << " ps\n";
    std::cout << "  estimated delay:                         "
              << report.skew.d_hat / ps << " ps\n";
    std::cout << "  |error|: "
              << std::abs(report.skew.d_hat - true_delay) / ps << " ps\n";
    std::cout << "  LMS cost evaluations: " << report.skew.cost_evaluations
              << "\n";
    std::cout << "  reconstructed envelope samples: "
              << envelope.samples.size() << " @ " << envelope.rate / MHz
              << " MHz\n";

    return report.pass() ? 0 : 1;
}
