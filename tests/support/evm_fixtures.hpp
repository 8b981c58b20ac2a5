/// \file evm_fixtures.hpp
/// \brief The EVM meter's test waveform and envelopes: clean, complex gain,
///        timing offset, residual timing, AWGN and peak noise.
///
/// tests/waveform/evm_test.cpp checks the meter's behaviour on them, and
/// tests/waveform/evm_table_test.cpp runs the same search on them with the
/// closed-form yardstick filter.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/random.hpp"
#include "core/units.hpp"
#include "waveform/evm.hpp"

namespace sdrbist::testing {

/// 96 QPSK symbols at 10 Msym/s, roll-off 0.5, 16 samples per symbol.
inline waveform::baseband_waveform evm_waveform() {
    waveform::generator_config g;
    g.mod = waveform::modulation::qpsk;
    g.symbol_rate = 10.0 * MHz;
    g.rolloff = 0.5;
    g.oversample = 16;
    g.span_symbols = 8;
    g.symbol_count = 96;
    return waveform::generate_baseband(g);
}

/// An envelope and the meter options it is measured with.
struct evm_fixture {
    std::string name;
    std::vector<std::complex<double>> env;
    waveform::evm_options opt;
};

/// The complex channel gain of `complex_gain_fixture`.
inline const std::complex<double> fixture_gain = 2.5 * std::polar(1.0, 0.8);

/// The waveform's own samples.
inline evm_fixture clean_fixture(const waveform::baseband_waveform& wf) {
    return {"clean", wf.samples, {}};
}

/// The samples scaled by `fixture_gain`.
inline evm_fixture
complex_gain_fixture(const waveform::baseband_waveform& wf) {
    auto scaled = wf.samples;
    for (auto& v : scaled)
        v *= fixture_gain;
    return {"complex-gain", scaled, {}};
}

/// envelope[0] sits at t = 20 ns (envelope_t0): the leading samples are
/// dropped and the meter is told so.
inline evm_fixture
timing_offset_fixture(const waveform::baseband_waveform& wf) {
    waveform::evm_options opt;
    opt.envelope_t0 = 20.0 * ns;
    const auto skip = static_cast<std::size_t>(
        std::lround(20.0 * ns * wf.sample_rate));
    return {"timing-offset",
            {wf.samples.begin() + static_cast<long>(skip), wf.samples.end()},
            opt};
}

/// The envelope a full sample late without telling the meter, with the
/// timing search effectively disabled.
inline evm_fixture
residual_timing_fixture(const waveform::baseband_waveform& wf) {
    waveform::evm_options opt;
    opt.timing_search_span = 0.0001;
    opt.timing_steps = 3;
    return {"residual-timing", {wf.samples.begin() + 1, wf.samples.end()},
            opt};
}

/// The SNRs of `awgn_fixtures`, in order.
inline constexpr std::array<double, 2> awgn_snr_db = {30.0, 20.0};

/// White Gaussian noise at each of `awgn_snr_db`, drawn from one stream.
inline std::vector<evm_fixture>
awgn_fixtures(const waveform::baseband_waveform& wf) {
    rng gen(33);
    std::vector<evm_fixture> out;
    for (const double snr_db : awgn_snr_db) {
        auto noisy = wf.samples;
        const double sigma = std::pow(10.0, -snr_db / 20.0) / std::sqrt(2.0);
        for (auto& v : noisy)
            v += std::complex<double>(gen.gaussian(0.0, sigma),
                                      gen.gaussian(0.0, sigma));
        out.push_back({"awgn-" + std::to_string(static_cast<int>(snr_db)) +
                           "dB",
                       noisy,
                       {}});
    }
    return out;
}

/// Noise of σ = 0.02 per rail, for the peak-vs-RMS check.
inline evm_fixture peak_noise_fixture(const waveform::baseband_waveform& wf) {
    rng gen(7);
    auto noisy = wf.samples;
    for (auto& v : noisy)
        v += std::complex<double>(gen.gaussian(0.0, 0.02),
                                  gen.gaussian(0.0, 0.02));
    return {"peak-noise", noisy, {}};
}

/// Every fixture above.
inline std::vector<evm_fixture>
evm_fixtures(const waveform::baseband_waveform& wf) {
    std::vector<evm_fixture> out = {
        clean_fixture(wf), complex_gain_fixture(wf),
        timing_offset_fixture(wf), residual_timing_fixture(wf)};
    for (auto& f : awgn_fixtures(wf))
        out.push_back(std::move(f));
    out.push_back(peak_noise_fixture(wf));
    return out;
}

} // namespace sdrbist::testing
