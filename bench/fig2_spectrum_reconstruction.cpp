/// \file fig2_spectrum_reconstruction.cpp
/// \brief The BIST deliverable the paper's introduction motivates (and
///        Fig. 2 illustrates): the spectrum of the PA output, reconstructed
///        from the nonuniform samples, compared against the true transmitted
///        spectrum and graded against the emission mask.
///
/// Expected shape: reconstructed PSD matches the true PSD inside the band
/// (within ~1 dB); out-of-band it floors at the jitter-induced noise floor
/// (~ -44 dBc for 3 ps at 1 GHz — the paper's §II-B3 wideband-noise
/// limitation); the golden device passes the mask.
#include <iostream>

#include "bench_util.hpp"
#include "core/table.hpp"
#include "dsp/psd.hpp"

int main() {
    using namespace sdrbist;

    const auto run = benchutil::run_paper_engine();

    // True PSD: welch on the (wide-filtered) capture-path envelope.
    dsp::welch_options wopt;
    wopt.segment_length = 256;
    // The tx envelope at its own rate is fine for a PSD comparison.
    const auto& tx_out = run.session.tx_capture().tx_out;
    const auto psd_true = dsp::welch_psd(
        std::span<const std::complex<double>>(tx_out.envelope.data(),
                                              tx_out.envelope.size()),
        tx_out.envelope_rate, wopt);

    const auto psd_rec =
        bist::envelope_psd(run.session.reconstruction().envelope, 256);

    const double ref_true = psd_true.peak_density(-7.5 * MHz, 7.5 * MHz);
    const double ref_rec = psd_rec.peak_density(-7.5 * MHz, 7.5 * MHz);

    std::cout << "Fig. 2 / BIST spectrum — reconstructed vs transmitted PSD "
                 "(dBc, 1.4 MHz bins)\n\n";
    text_table table({"offset [MHz]", "transmitted [dBc]",
                      "reconstructed [dBc]"});
    for (double off = -40.0 * MHz; off <= 40.0 * MHz + 1.0;
         off += 2.5 * MHz) {
        const double p_true =
            psd_true.peak_density(off - 1.0 * MHz, off + 1.0 * MHz);
        const double p_rec =
            psd_rec.peak_density(off - 1.0 * MHz, off + 1.0 * MHz);
        table.add_row(
            {text_table::num(off / MHz, 1),
             p_true > 0.0 ? text_table::num(db_from_power(p_true / ref_true), 1)
                          : "-inf",
             p_rec > 0.0 ? text_table::num(db_from_power(p_rec / ref_rec), 1)
                         : "-inf"});
    }
    table.print(std::cout);

    std::cout << "\nmask verdict on the reconstructed spectrum:\n";
    for (const auto& seg : run.report.mask.segments)
        std::cout << "  [" << seg.segment.offset_lo_hz / MHz << ", "
                  << seg.segment.offset_hi_hz / MHz << "] MHz: measured "
                  << seg.measured_dbc << " dBc, limit "
                  << seg.segment.limit_dbc << " dBc -> "
                  << (seg.pass ? "pass" : "FAIL") << "\n";
    std::cout << "  overall: " << (run.report.mask.pass ? "PASS" : "FAIL")
              << " (worst margin " << run.report.mask.worst_margin_db
              << " dB)\n";
    std::cout << "\nEVM of the reconstructed waveform: "
              << run.report.evm.evm_percent() << " % rms\n";
    return 0;
}
