// Property/fuzz-style lockdown of the PNBS reconstructor under SIMD
// backend dispatch: across randomly drawn configurations (band position,
// tap count, window shape, record length, delay hypothesis) and under
// EVERY CPU-supported backend,
//
//  * uniform() stays bit-identical to per-point value() —
//    the PR 2 invariant, now quantified over backends;
//  * the fused fast path stays within its accuracy envelope of the
//    per-tap transcendental yardstick (support/pnbs_yardstick.hpp);
//  * a backend-built reconstructor agrees with its scalar-forced twin
//    within the documented accumulation bound.
//
// Configurations are drawn from a seeded rng, so failures reproduce; the
// draw is rejected (and redrawn) only when the delay hypothesis lands on a
// forbidden value of the Kohlenberg kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"
#include "support/pnbs_yardstick.hpp"

namespace {

using namespace sdrbist;
using sampling::band_spec;
using sampling::kohlenberg_kernel;
using sampling::pnbs_reconstructor;
using simd::kernel_backend;
using sdrbist::testing::pnbs_yardstick;

/// One randomly drawn reconstruction scenario.
struct scenario {
    band_spec band;
    double period = 0.0;
    double t_start = 0.0;
    double delay = 0.0;
    std::size_t taps = 0;
    double beta = 0.0;
    std::vector<double> even, odd;
};

scenario draw_scenario(rng& gen) {
    scenario s;
    // Random band position: B in [40, 140] MHz, f_lo a random multiple of
    // B in [0.6, 6] so k = ceil(2·f_lo/B) varies (including near-integer
    // ratios where s0 may vanish).
    const double b = gen.uniform(40.0, 140.0) * MHz;
    const double ratio = gen.uniform(0.6, 6.0);
    s.band = band_spec{ratio * b, ratio * b + b};
    s.period = 1.0 / s.band.bandwidth();
    s.t_start = gen.uniform(-5.0, 5.0) * s.period;
    s.taps = 5 + 2 * static_cast<std::size_t>(gen.uniform_int(0, 28)); // 5..61
    s.beta = gen.uniform(4.0, 10.0);

    // Delay hypothesis near the magnitude-optimal value, rejected while it
    // sits on a forbidden multiple (paper eq. (3)).
    do {
        s.delay = kohlenberg_kernel::optimal_delay(s.band) *
                  gen.uniform(0.5, 1.8);
    } while (!kohlenberg_kernel::delay_is_stable(s.band, s.delay));

    const std::size_t n =
        s.taps + 20 + static_cast<std::size_t>(gen.uniform_int(0, 200));
    s.even = gen.uniform_vector(n, -1.0, 1.0);
    s.odd = gen.uniform_vector(n, -1.0, 1.0);
    return s;
}

pnbs_reconstructor build(const scenario& s) {
    return pnbs_reconstructor(s.even, s.odd, s.period, s.t_start, s.band,
                              s.delay, {s.taps, s.beta});
}

/// Restores auto-detection after the forced-backend loops.
struct backend_restore {
    ~backend_restore() { kernel_backend::reset(); }
};

TEST(PnbsProperty, BatchEntryPointsBitIdenticalToPerPointUnderEveryBackend) {
    backend_restore restore;
    rng gen(0xF022);
    for (int config = 0; config < 12; ++config) {
        const scenario s = draw_scenario(gen);
        for (const auto* ops : kernel_backend::available()) {
            kernel_backend::force(ops->name);
            const auto recon = build(s);
            ASSERT_STREQ(recon.backend().name, ops->name);

            const double rate = 3.1 * s.band.bandwidth();
            const double t0 = recon.valid_begin();
            const auto grid = recon.uniform(t0, rate, 100);
            for (std::size_t i = 0; i < grid.size(); ++i)
                EXPECT_EQ(grid[i],
                          recon.value(t0 + static_cast<double>(i) / rate))
                    << ops->name << " config=" << config << " i=" << i;
        }
    }
}

TEST(PnbsProperty, FastPathTracksReferenceUnderEveryBackend) {
    backend_restore restore;
    rng gen(0xF023);
    for (int config = 0; config < 8; ++config) {
        const scenario s = draw_scenario(gen);
        const pnbs_yardstick ref(s.even, s.odd, s.period, s.t_start, s.band,
                                 s.delay, {s.taps, s.beta});
        for (const auto* ops : kernel_backend::available()) {
            kernel_backend::force(ops->name);
            const auto recon = build(s);

            rng probe(0xCD + static_cast<std::uint64_t>(config));
            double worst = 0.0;
            for (int i = 0; i < 100; ++i) {
                const double t =
                    probe.uniform(recon.valid_begin(), recon.valid_end());
                worst = std::max(worst,
                                 std::abs(recon.value(t) - ref.value(t)));
            }
            // Random (non-bandlimited) records: the envelope is looser
            // than the curated fastpath suites but still pins the fused
            // evaluation to the transcendental yardstick.
            EXPECT_LT(worst, 1e-8)
                << ops->name << " config=" << config << " taps=" << s.taps;
        }
    }
}

TEST(PnbsProperty, BackendBuildsAgreeWithScalarTwinWithinBound) {
    backend_restore restore;
    rng gen(0xF024);
    for (int config = 0; config < 8; ++config) {
        const scenario s = draw_scenario(gen);

        kernel_backend::force("scalar");
        const auto scalar_recon = build(s);
        rng probe(0xEF + static_cast<std::uint64_t>(config));
        std::vector<double> ts(150);
        for (auto& t : ts)
            t = probe.uniform(scalar_recon.valid_begin(),
                              scalar_recon.valid_end());

        for (const auto* ops : kernel_backend::available()) {
            if (std::string_view(ops->name) == "scalar")
                continue;
            kernel_backend::force(ops->name);
            const auto recon = build(s);
            for (const double t : ts)
                EXPECT_NEAR(recon.value(t), scalar_recon.value(t), 1e-11)
                    << ops->name << " config=" << config << " t=" << t;
        }
    }
}

} // namespace
