// Direct complex envelope of the PNBS product form
// (pnbs_reconstructor::envelope): its real part after remixing is value()
// on every CPU-supported backend, including a band where the s0 term
// vanishes (only the s1 table is read), and for an in-band tone it
// is the tone's phasor, so the imaginary part is the analytic one.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string_view>
#include <vector>

#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"
#include "support/envelope_check.hpp"

namespace {

using namespace sdrbist;
using sampling::band_spec;
using sampling::pnbs_reconstructor;
using simd::kernel_backend;

struct backend_restore {
    ~backend_restore() { kernel_backend::reset(); }
};

struct records {
    std::vector<double> even, odd;
};

/// Even/odd streams of x at t_start + n·T and t_start + n·T + d.
records sample(const rf::passband_signal& x, double period, double t_start,
               double d, std::size_t n) {
    records r;
    r.even.resize(n);
    r.odd.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double t = t_start + static_cast<double>(k) * period;
        r.even[k] = x.value(t);
        r.odd[k] = x.value(t + d);
    }
    return r;
}

struct config {
    const char* name;
    band_spec band;
    double delay;
    double f_mix;
};

std::vector<config> configs() {
    const auto paper = sampling::band_around(1.0 * GHz, 90.0 * MHz);
    // 2·f_lo/B = 10: s0 vanishes identically.
    const band_spec s0_zero{450.0 * MHz, 540.0 * MHz};
    const auto low = sampling::band_around(380.0 * MHz, 60.0 * MHz);
    return {
        {"paper", paper, 180.0 * ps, paper.centre()},
        {"paper-offset-mix", paper, 180.0 * ps, paper.centre() - 21.0 * MHz},
        {"s0-vanishing", s0_zero, 310.0 * ps, s0_zero.centre()},
        {"low-band", low, 420.0 * ps, 377.0 * MHz},
    };
}

TEST(PnbsEnvelope, RemixedRealPartEqualsValueOnEveryBackend) {
    backend_restore restore;
    for (const auto& c : configs()) {
        ASSERT_TRUE(
            sampling::kohlenberg_kernel::delay_is_stable(c.band, c.delay));
        const double period = 1.0 / c.band.bandwidth();
        const double t_start = 2.0 * us;
        const rf::multitone_signal sig(
            {{c.band.f_lo + 0.13 * c.band.bandwidth(), 0.7, 0.4},
             {c.band.centre() + 0.011 * c.band.bandwidth(), 1.0, -1.2},
             {c.band.f_hi - 0.09 * c.band.bandwidth(), 0.4, 2.5}},
            20.0 * us);
        const auto rec = sample(sig, period, t_start, c.delay, 400);
        for (const auto* ops : kernel_backend::available()) {
            kernel_backend::force(ops->name);
            const pnbs_reconstructor recon(rec.even, rec.odd, period,
                                           t_start, c.band, c.delay,
                                           {61, 8.0});
            ASSERT_EQ(recon.kernel().s0_vanishes(),
                      std::string_view(c.name) == "s0-vanishing");
            // Past both ends of the valid span too: truncated windows and,
            // beyond the records, instants with no tap at all (both 0).
            const double t0 = t_start - 40.0 * period;
            const double rate = 7.3 * c.band.bandwidth();
            const auto n = static_cast<std::size_t>(480.0 * period * rate);
            const auto r =
                sdrbist::testing::check_re_identity(recon, t0, rate, n, c.f_mix);
            EXPECT_GT(r.peak, 1.0);
            EXPECT_LE(r.max_err, 1e-12 * r.peak)
                << c.name << " on " << ops->name;
        }
    }
}

TEST(PnbsEnvelope, ToneEnvelopeIsItsPhasor) {
    // A single in-band tone A·cos(2π·f·t + φ) has the envelope
    // A·e^{j(2π·(f - f_mix)·t + φ)} about f_mix; the bound is the
    // truncated kernel's reconstruction error, not the mixing.
    for (const auto& c : configs()) {
        const double period = 1.0 / c.band.bandwidth();
        const double f = c.band.centre() + 0.17 * c.band.bandwidth();
        const double a = 0.8;
        const double phase = 0.9;
        const rf::multitone_signal sig({{f, a, phase}}, 20.0 * us);
        const auto rec = sample(sig, period, 0.0, c.delay, 400);
        const pnbs_reconstructor recon(rec.even, rec.odd, period, 0.0,
                                       c.band, c.delay, {61, 8.0});
        const double t0 = recon.valid_begin();
        const double rate = 2.1 * c.band.bandwidth();
        const auto n = static_cast<std::size_t>(
            (recon.valid_end() - t0) * rate);
        const auto env = recon.envelope(t0, rate, n, c.f_mix);
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double t = t0 + static_cast<double>(i) / rate;
            const auto want =
                std::polar(a, two_pi * (f - c.f_mix) * t + phase);
            worst = std::max(worst, std::abs(env[i] - want));
        }
        EXPECT_LT(worst, 2e-4 * a) << c.name;
    }
}

} // namespace
