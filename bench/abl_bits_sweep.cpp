/// \file abl_bits_sweep.cpp
/// \brief Ablation: ADC resolution (the paper uses two 10-bit converters).
///        Sweeps converter bits with the jitter held at 3 ps rms.
///
/// Expected shape: below ~8 bits quantisation dominates both the skew
/// estimate and the reconstruction error; from 10 bits on, the 3 ps jitter
/// floor dominates and extra bits buy nothing — supporting the paper's
/// choice of the existing 10-bit Rx converters.
#include <iostream>

#include "bench_util.hpp"
#include "core/table.hpp"

int main() {
    using namespace sdrbist;

    std::cout << "Ablation — ADC resolution (paper: 10 bits, jitter 3 ps)\n\n";
    text_table table({"bits", "|D-hat - D| [ps]", "recon error [%]",
                      "EVM [%]"});
    for (int bits : {6, 8, 10, 12, 14}) {
        const auto run = benchutil::run_paper_engine(
            [&](bist::bist_config& c) { c.tiadc.quant.bits = bits; });
        const double d_true =
            run.session.tx_capture().capture.fast.true_delay_s;
        table.add_row(
            {std::to_string(bits),
             text_table::num(std::abs(run.report.skew.d_hat - d_true) / ps, 3),
             text_table::num(100.0 * benchutil::reconstruction_rel_error(
                                         run, run.report.skew.d_hat),
                             2),
             text_table::num(run.report.evm.evm_percent(), 2)});
    }
    table.print(std::cout);
    std::cout << "\nreading: with 3 ps jitter the quality saturates at "
                 "~10 bits — reusing the radio's own 10-bit Rx converters "
                 "(the paper's architecture) loses nothing\n";
    return 0;
}
