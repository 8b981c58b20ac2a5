// The PNBS kernel tables (sampling::pnbs_tap_tables): every read against
// the exact windowed kernel (−1)^{k_m·j}·w(x/span)·sinc(f_m·T·x) with the
// exact continuous Kaiser window, on the catalogue presets' band plans, a
// band whose s0 vanishes, both parities of k, both ends of the phase range,
// edge-clamped tap windows and every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bist/pipeline.hpp"
#include "core/contracts.hpp"
#include "core/math_util.hpp"
#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "dsp/window.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;
using sampling::band_around;
using sampling::band_spec;
using sampling::pnbs_options;
using sampling::pnbs_tap_tables;
using simd::kernel_backend;

/// Documented bound of a read against the exact kernel, relative to the
/// read's Σ|terms| (sampling/pnbs.hpp).
constexpr double read_rel_bound = 5e-10;

/// blend_dot's reassociation bound across backends, relative to Σ|terms|
/// (core/simd/kernel_backend.hpp).
constexpr double backend_rel_bound = 1e-12;

/// One term's exact sum over taps j_lo..j_lo+count-1 and its Σ|terms|.
struct exact_sum {
    double sum = 0.0;
    double mag = 0.0;
};

exact_sum exact_term(const band_spec& band, const pnbs_options& opt,
                     int term, const double* x, double phi, long j_lo,
                     std::size_t count) {
    const sampling::kernel_terms kt(band);
    const double period = 1.0 / band.bandwidth();
    const double gamma = (term == 0 ? kt.f0 : kt.f1) * period;
    const long k_m = kt.k + term;
    const double span = static_cast<double>(opt.taps / 2) + 1.0;
    exact_sum e;
    for (std::size_t i = 0; i < count; ++i) {
        const long j = j_lo + static_cast<long>(i);
        const double xj = phi - static_cast<double>(j);
        const bool flip = (k_m & 1L) != 0 && (j & 1L) != 0;
        const double v = x[i] * (flip ? -1.0 : 1.0) *
                         dsp::kaiser_window_at(xj / span, opt.kaiser_beta) *
                         sinc(gamma * xj);
        e.sum += v;
        e.mag += std::abs(v);
    }
    return e;
}

/// Largest relative deviation of both terms' reads from the exact kernel
/// over `phases`, on the full window and on windows clamped at either end.
double worst_read_error(const band_spec& band, const pnbs_options& opt,
                        const std::vector<double>& phases,
                        std::uint64_t seed) {
    const double period = 1.0 / band.bandwidth();
    const pnbs_tap_tables tables(band, period, opt);
    const auto& ops = kernel_backend::select();
    rng gen(seed);
    const auto x = gen.uniform_vector(opt.taps, -1.0, 1.0);
    const long half = tables.half;
    double worst = 0.0;
    for (const double phi : phases) {
        for (const auto& [j_lo, j_hi] :
             {std::pair{-half, half}, std::pair{-half + 7, half},
              std::pair{-half, half - 11}, std::pair{-2L, 3L}}) {
            const auto count = static_cast<std::size_t>(j_hi - j_lo + 1);
            const double* xs = x.data() + (j_lo + half);
            const auto got = tables.read(ops, xs, phi, j_lo, count);
            for (int term = 0; term < 2; ++term) {
                const auto want =
                    exact_term(band, opt, term, xs, phi, j_lo, count);
                if (term == 0 && tables.terms.s0_vanishes) {
                    EXPECT_EQ(got.h0, 0.0);
                    continue;
                }
                const double v = term == 0 ? got.h0 : got.h1;
                worst = std::max(worst, std::abs(v - want.sum) / want.mag);
            }
        }
    }
    return worst;
}

/// Random phases over the whole table range plus both of its ends and the
/// even stream's ends ±0.5.
std::vector<double> phases(std::uint64_t seed, std::size_t n = 60) {
    rng gen(seed);
    std::vector<double> out{-1.0, -0.5, 0.0, 0.5, -1.0 + 1e-13, 0.5 - 1e-13};
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(gen.uniform(-1.0, 0.5));
    return out;
}

TEST(PnbsTable, ReadsMatchTheExactKernelOnEveryPresetBandPlan) {
    for (const auto& preset : waveform::standard_catalogue()) {
        bist::bist_config config;
        config.preset = preset;
        bist::bist_session session(config);
        session.run_until(bist::stage::stimulus);
        const auto& plan = session.stimulus().plan;
        for (const band_spec& band : {plan.fast, plan.slow})
            for (const std::size_t taps : {41u, 61u})
                EXPECT_LE(worst_read_error(band, {taps, 8.0}, phases(taps),
                                           0x7AB0 + taps),
                          read_rel_bound)
                    << preset.name << " band " << band.f_lo << ".."
                    << band.f_hi << " taps " << taps;
    }
}

TEST(PnbsTable, ReadsMatchWhenS0Vanishes) {
    // 2·f_lo/B = 43: no s0 term.
    const band_spec band = band_around(990.0 * MHz, 45.0 * MHz);
    ASSERT_TRUE(sampling::kernel_terms(band).s0_vanishes);
    const pnbs_tap_tables tables(band, 1.0 / band.bandwidth(), {});
    ASSERT_TRUE(tables.terms.s0_vanishes);
    EXPECT_LE(worst_read_error(band, {}, phases(0x50), 0x51), read_rel_bound);
}

TEST(PnbsTable, ReadsMatchForOddAndEvenK) {
    const band_spec even_k = band_around(1.0 * GHz, 90.0 * MHz);     // k 22
    const band_spec odd_k = band_around(1.045 * GHz, 90.0 * MHz);    // k 23
    const band_spec low = band_spec{0.3 * 50.0 * MHz, 1.3 * 50.0 * MHz}; // k 1
    EXPECT_EQ(sampling::kernel_terms(even_k).k % 2, 0);
    EXPECT_EQ(sampling::kernel_terms(odd_k).k % 2, 1);
    EXPECT_EQ(sampling::kernel_terms(low).k, 1);
    for (const band_spec& band : {even_k, odd_k, low})
        for (const double beta : {5.0, 8.0})
            EXPECT_LE(worst_read_error(band, {61, beta}, phases(0x60), 0x61),
                      read_rel_bound)
                << band.f_lo << " beta " << beta;
}

TEST(PnbsTable, ReconstructorReadsBothEndsOfThePhaseRange) {
    // k = 1 (k⁺ = 2): the search interval reaches T/2, so with frac = −0.5
    // the odd stream reads at φ → −1, and with frac = 0.5 the even stream
    // reads at φ = 0.5.
    const band_spec band{0.3 * 50.0 * MHz, 1.3 * 50.0 * MHz};
    const double period = 1.0 / band.bandwidth();
    const double d = 0.495 * period; // 0.99 of T/k⁺
    ASSERT_TRUE(sampling::kohlenberg_kernel::delay_is_stable(band, d));
    rng gen(0xE1D);
    const std::size_t n = 200;
    const auto even = gen.uniform_vector(n, -1.0, 1.0);
    const auto odd = gen.uniform_vector(n, -1.0, 1.0);
    const sampling::pnbs_reconstructor recon(even, odd, period, 0.0, band, d);

    // The exact per-tap reconstruction at t, on the reconstructor's taps.
    const sampling::kohlenberg_kernel kern(band, d);
    const double span = 31.0;
    auto exact = [&](double t) {
        const double pos = t / period;
        const auto centre = static_cast<long>(std::llround(pos));
        double acc = 0.0;
        double mag = 0.0;
        for (long m = centre - 30; m <= centre + 30; ++m) {
            const double tau = (pos - static_cast<double>(m)) * period;
            const double ve = even[static_cast<std::size_t>(m)] *
                              kern.s(tau) *
                              dsp::kaiser_window_at(tau / period / span, 8.0);
            const double vo =
                odd[static_cast<std::size_t>(m)] * kern.s(d - tau) *
                dsp::kaiser_window_at((tau - d) / period / span, 8.0);
            acc += ve + vo;
            mag += std::abs(ve) + std::abs(vo);
        }
        return std::pair{acc, mag};
    };
    for (std::size_t k = 40; k < 160; k += 7) {
        for (const double frac : {-0.5, 0.5, 0.0}) {
            const double t = (static_cast<double>(k) + frac) * period;
            const auto [want, mag] = exact(t);
            EXPECT_LE(std::abs(recon.value(t) - want) / mag, read_rel_bound)
                << "k " << k << " frac " << frac;
        }
    }
}

TEST(PnbsTable, EveryBackendReadsLikeScalar) {
    struct backend_restore {
        ~backend_restore() { kernel_backend::reset(); }
    } restore;
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const pnbs_tap_tables tables(band, period, {});
    rng gen(0xB4C);
    const auto x = gen.uniform_vector(tables.taps, -1.0, 1.0);
    const auto& scalar = simd::scalar_ops();
    for (const auto* ops : kernel_backend::available()) {
        for (const double phi : phases(0xB4D)) {
            for (const long j_lo : {-tables.half, -tables.half + 5L}) {
                const auto count =
                    static_cast<std::size_t>(tables.half - j_lo + 1);
                const double* xs = x.data() + (j_lo + tables.half);
                const auto ref = tables.read(scalar, xs, phi, j_lo, count);
                const auto got = tables.read(*ops, xs, phi, j_lo, count);
                const auto e0 = exact_term(band, {}, 0, xs, phi, j_lo, count);
                const auto e1 = exact_term(band, {}, 1, xs, phi, j_lo, count);
                EXPECT_LE(std::abs(got.h0 - ref.h0),
                          backend_rel_bound * e0.mag)
                    << ops->name << " phi " << phi;
                EXPECT_LE(std::abs(got.h1 - ref.h1),
                          backend_rel_bound * e1.mag)
                    << ops->name << " phi " << phi;
                // Deterministic within a backend.
                const auto again = tables.read(*ops, xs, phi, j_lo, count);
                EXPECT_EQ(got.h0, again.h0) << ops->name;
                EXPECT_EQ(got.h1, again.h1) << ops->name;
            }
        }
    }
}

TEST(PnbsTable, ConcurrentBuildsAreBitIdentical) {
    // A (taps, β) key no other test uses, so the threads race on the first
    // build of its shared window grid.
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const pnbs_options opt{23, 6.125};
    constexpr int n_threads = 8;
    std::vector<std::vector<double>> cells(n_threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < n_threads) {
            }
            cells[static_cast<std::size_t>(t)] =
                pnbs_tap_tables(band, period, opt).cells;
        });
    for (auto& th : threads)
        th.join();
    for (const auto& c : cells)
        EXPECT_EQ(c, cells.front());
    EXPECT_EQ(pnbs_tap_tables(band, period, opt).cells, cells.front());
}

TEST(PnbsTable, Preconditions) {
    const band_spec band = band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    EXPECT_THROW(pnbs_tap_tables(band, period, {60, 8.0}), contract_violation);
    EXPECT_THROW(pnbs_tap_tables(band, period, {3, 8.0}), contract_violation);
    EXPECT_THROW(pnbs_tap_tables(band, period, {61, -1.0}),
                 contract_violation);
    EXPECT_THROW(pnbs_tap_tables(band, -period, {}), contract_violation);

    const pnbs_tap_tables tables(band, period, {});
    const std::vector<double> x(tables.taps, 1.0);
    const auto& ops = kernel_backend::select();
    for (const double phi : {-1.0 - 1e-12, 0.5 + 1e-12, std::nan("")})
        EXPECT_THROW((void)tables.read(ops, x.data(), phi, -tables.half,
                                       tables.taps),
                     contract_violation)
            << phi;

    // A reconstructor whose odd stream would read below φ = −1.
    rng gen(0x9E);
    const auto rec = gen.uniform_vector(100, -1.0, 1.0);
    EXPECT_THROW(sampling::pnbs_reconstructor(rec, rec, period, 0.0, band,
                                              0.51 * period),
                 contract_violation);
}

} // namespace
