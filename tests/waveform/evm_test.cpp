// EVM meter tests: clean-chain zero, gain/phase/timing recovery, noise.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/units.hpp"
#include "support/evm_fixtures.hpp"
#include "waveform/evm.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::waveform;

using cplx = std::complex<double>;
namespace fx = sdrbist::testing; // the shared EVM fixtures
using fx::evm_waveform;

evm_result measure(const fx::evm_fixture& f,
                   const baseband_waveform& wf) {
    return measure_evm(std::span<const cplx>(f.env.data(), f.env.size()),
                       wf.sample_rate, wf, f.opt);
}

TEST(Evm, CleanChainIsNearZero) {
    const auto wf = evm_waveform();
    const auto r = measure(fx::clean_fixture(wf), wf);
    EXPECT_LT(r.evm_percent(), 0.5);
    EXPECT_NEAR(std::abs(r.gain), 1.0, 0.02);
    EXPECT_NEAR(r.timing_offset, 0.0, 2.0 * ns);
}

TEST(Evm, RecoversComplexGain) {
    const auto wf = evm_waveform();
    const auto r = measure(fx::complex_gain_fixture(wf), wf);
    EXPECT_LT(r.evm_percent(), 0.5);
    EXPECT_NEAR(std::abs(r.gain), 2.5, 0.05);
    EXPECT_NEAR(std::arg(r.gain), 0.8, 0.02);
}

TEST(Evm, RecoversTimingOffset) {
    // Shift the envelope timeline via envelope_t0 and verify the search
    // finds it.
    const auto wf = evm_waveform();
    const auto r = measure(fx::timing_offset_fixture(wf), wf);
    EXPECT_LT(r.evm_percent(), 0.6);
}

TEST(Evm, ResidualTimingErrorDegradesGracefully) {
    // A deliberate unmodelled delay shows up as EVM, roughly linear in the
    // offset for small offsets.
    const auto wf = evm_waveform();
    const auto r = measure(fx::residual_timing_fixture(wf), wf);
    EXPECT_GT(r.evm_percent(), 1.0); // a full sample late: visible
}

TEST(Evm, AwgnSetsEvmFloor) {
    const auto wf = evm_waveform();
    const auto fixtures = fx::awgn_fixtures(wf);
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
        const double snr_db = fx::awgn_snr_db[i];
        const auto r = measure(fixtures[i], wf);
        // Matched filtering gains ~ sqrt(oversample·...) against white
        // noise; EVM must be below the raw noise level but non-zero.
        const double raw_percent = 100.0 * std::pow(10.0, -snr_db / 20.0);
        EXPECT_LT(r.evm_percent(), raw_percent);
        EXPECT_GT(r.evm_percent(), raw_percent / 20.0);
    }
}

TEST(Evm, PeakAtLeastRms) {
    const auto wf = evm_waveform();
    const auto r = measure(fx::peak_noise_fixture(wf), wf);
    EXPECT_GE(r.evm_peak, r.evm_rms);
    EXPECT_FALSE(r.received_symbols.empty());
}

TEST(Evm, Preconditions) {
    const auto wf = evm_waveform();
    std::vector<std::complex<double>> tiny(8, {0.0, 0.0});
    EXPECT_THROW(measure_evm(std::span<const std::complex<double>>(
                                 tiny.data(), tiny.size()),
                             wf.sample_rate, wf),
                 contract_violation);
    evm_options opt;
    opt.timing_steps = 4; // must be odd
    EXPECT_THROW(measure_evm(std::span<const std::complex<double>>(
                                 wf.samples.data(), wf.samples.size()),
                             wf.sample_rate, wf, opt),
                 contract_violation);
}

} // namespace
