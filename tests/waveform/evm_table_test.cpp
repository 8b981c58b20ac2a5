// Tabulated SRRC matched filter (waveform::srrc_matched_filter) against the
// closed-form yardstick on every CPU-supported backend: the per-output
// bound across samples-per-symbol and roll-offs, windows clamped at the
// record edges (partial rows, the kernel's scalar tails), the table memo,
// and measure_evm's timing search against a yardstick-driven run.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/units.hpp"
#include "support/evm_fixtures.hpp"
#include "support/evm_yardstick.hpp"
#include "waveform/evm.hpp"
#include "waveform/srrc.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::waveform;
using simd::kernel_backend;
using cplx = std::complex<double>;

struct backend_restore {
    ~backend_restore() { kernel_backend::reset(); }
};

constexpr double symbol_rate = 1.0 * MHz;
constexpr double ts = 1.0 / symbol_rate;
constexpr double span = matched_span_symbols;

std::vector<cplx> noise_record(std::size_t n, std::uint64_t seed) {
    rng gen(seed);
    std::vector<cplx> x(n);
    for (auto& v : x)
        v = {gen.gaussian(), gen.gaussian()};
    return x;
}

/// Largest |table - yardstick| at `centres`, over the yardstick's
/// Σ|env·h| (`rel`) and over its Σ|env| (`abs`).
struct table_error {
    double rel = 0.0;
    double abs = 0.0;
};

table_error worst_error(const srrc_matched_filter& mf,
                        const std::vector<cplx>& env, double fs,
                        double rolloff, const std::vector<double>& centres) {
    table_error worst;
    for (const double t : centres) {
        const auto ref =
            sdrbist::testing::matched_output(env, fs, t, ts, rolloff);
        const cplx y = mf(env, t);
        if (ref.env_sum == 0.0) {
            // The window misses the record: both sums are empty.
            EXPECT_EQ(y, cplx(0.0, 0.0)) << "t = " << t;
            continue;
        }
        const double err = std::abs(y - ref.value);
        worst.rel = std::max(worst.rel, err / ref.abs_sum);
        worst.abs = std::max(worst.abs, err / ref.env_sum);
    }
    return worst;
}

/// The bounds: 1e-9 of Σ|env·h|, and 1e-10 of Σ|env| (the blended pulse is
/// within ~5.5e-11 of srrc_value everywhere, peak ≈ 1.1).  The absolute
/// one also holds for a window of one or two samples near a zero of h,
/// where Σ|env·h| itself is ~1e-8.
void expect_within_bounds(const table_error& e, const std::string& what) {
    EXPECT_LE(e.rel, 1e-9) << what;
    EXPECT_LE(e.abs, 1e-10) << what;
}

TEST(EvmTable, MatchesClosedFormOnEveryBackend) {
    backend_restore restore;
    // sps 7.94 and 23.15 span the catalogue; 16 is evm_test's integer
    // shape.  At sps 16 the singular points |u| = 1/(4α) of α = 0.5 and
    // α = 1.0 land on table nodes (j = 8 and j = 4 at phase 0).
    for (const double sps : {7.94, 16.0, 23.15}) {
        const double fs = sps * symbol_rate;
        const auto n = static_cast<std::size_t>(30.0 * sps);
        const auto env = noise_record(n, 0xE7A0 + n);
        rng gen(static_cast<std::uint64_t>(sps * 100.0));
        std::vector<double> centres;
        const double t_end = static_cast<double>(n - 1) / fs;
        for (int i = 0; i < 200; ++i)
            centres.push_back(gen.uniform(span * ts, t_end - span * ts));
        for (int m = 0; m < 8; ++m) // on the sample grid
            centres.push_back(static_cast<double>(n / 2 + m) / fs);
        for (const double alpha : {0.22, 0.35, 0.5, 1.0}) {
            for (const auto* ops : kernel_backend::available()) {
                kernel_backend::force(ops->name);
                const srrc_matched_filter mf(fs, symbol_rate, alpha);
                expect_within_bounds(
                    worst_error(mf, env, fs, alpha, centres),
                    "sps " + std::to_string(sps) + " alpha " +
                        std::to_string(alpha) + " on " + ops->name);
            }
        }
    }
}

TEST(EvmTable, ClampedWindowsAtRecordEdges) {
    backend_restore restore;
    // Centres sweep from before the record to past its end, at a step
    // incommensurate with the sample period, so windows are clamped at
    // the start, at the end, at both (the short record), and missing;
    // their lengths take every residue the kernels' 4-wide loops leave.
    for (const double sps : {7.94, 23.15}) {
        const double fs = sps * symbol_rate;
        for (const std::size_t n :
             {static_cast<std::size_t>(30.0 * sps), std::size_t{37}}) {
            const auto env = noise_record(n, 0xC1A + n);
            const double t_end = static_cast<double>(n - 1) / fs;
            std::vector<double> centres;
            int clamped_lo = 0;
            int clamped_hi = 0;
            bool residue[4] = {};
            for (double t = -(span + 0.3) * ts; t < t_end + (span + 0.3) * ts;
                 t += 0.137 * ts) {
                centres.push_back(t);
                const auto lo =
                    static_cast<long>(std::ceil((t - span * ts) * fs));
                const auto hi =
                    static_cast<long>(std::floor((t + span * ts) * fs));
                const long a = std::max(lo, 0L);
                const long b = std::min(hi, static_cast<long>(n) - 1);
                if (b < a)
                    continue;
                clamped_lo += lo < 0;
                clamped_hi += hi > static_cast<long>(n) - 1;
                residue[(b - a + 1) % 4] = true;
            }
            EXPECT_GT(clamped_lo, 0);
            EXPECT_GT(clamped_hi, 0);
            for (const bool r : residue)
                EXPECT_TRUE(r);
            for (const auto* ops : kernel_backend::available()) {
                kernel_backend::force(ops->name);
                const srrc_matched_filter mf(fs, symbol_rate, 0.35);
                expect_within_bounds(
                    worst_error(mf, env, fs, 0.35, centres),
                    "sps " + std::to_string(sps) + " n " + std::to_string(n) +
                        " on " + ops->name);
            }
        }
    }
}

TEST(EvmTable, LayoutAndSingularNode) {
    const srrc_matched_filter mf(16.0 * symbol_rate, symbol_rate, 1.0);
    const std::size_t h = mf.half_width();
    EXPECT_EQ(h, static_cast<std::size_t>(std::ceil(span * 16.0)) + 2);
    EXPECT_EQ(mf.stride(), 2 * h + 2);
    const auto table = mf.table();
    ASSERT_EQ(table.size(),
              (srrc_matched_filter::phase_steps + 3) * mf.stride());
    for (const double v : table)
        ASSERT_TRUE(std::isfinite(v));
    // Row 1 is phase 0: column j holds h(j/16), so j = ±4 is the
    // removable singularity |u| = 1/(4α) = 0.25 and j = 0 the peak.
    const double* row1 = table.data() + mf.stride();
    EXPECT_EQ(row1[h + 4], srrc_value(0.25, 1.0));
    EXPECT_EQ(row1[h - 4], srrc_value(0.25, 1.0));
    EXPECT_EQ(row1[h], srrc_value(0.0, 1.0));

    // sps 23.15 is the catalogue's widest table.
    const srrc_matched_filter wide(23.15 * symbol_rate, symbol_rate, 0.25);
    EXPECT_LE(wide.table().size() * sizeof(double), 152u * 1024u);
}

TEST(EvmTable, MemoSharesOneTablePerKey) {
    backend_restore restore;
    const double fs = 14.9 * symbol_rate;
    const srrc_matched_filter a(fs, symbol_rate, 0.35);
    const srrc_matched_filter b(fs, symbol_rate, 0.35);
    EXPECT_EQ(a.table().data(), b.table().data());
    const srrc_matched_filter other_sps(fs * 1.01, symbol_rate, 0.35);
    EXPECT_NE(a.table().data(), other_sps.table().data());
    const srrc_matched_filter other_alpha(fs, symbol_rate, 0.5);
    EXPECT_NE(a.table().data(), other_alpha.table().data());
    // The table does not depend on the backend.
    kernel_backend::force("scalar");
    const srrc_matched_filter scalar(fs, symbol_rate, 0.35);
    EXPECT_EQ(a.table().data(), scalar.table().data());
}

// measure_evm against the same search driven by the yardstick, on the
// fixtures evm_test checks the meter's behaviour with.
TEST(EvmTable, MeasureEvmMatchesYardstickSearch) {
    backend_restore restore;
    const auto wf = sdrbist::testing::evm_waveform();
    const double wf_ts = 1.0 / wf.symbol_rate;
    for (const auto& f : sdrbist::testing::evm_fixtures(wf)) {
        const std::span<const cplx> env(f.env.data(), f.env.size());
        const auto ref = measure_evm(
            env, wf.sample_rate, wf, f.opt, [&](double t) {
                return sdrbist::testing::matched_output(
                           env, wf.sample_rate, t, wf_ts, wf.rolloff)
                    .value;
            });
        for (const auto* ops : kernel_backend::available()) {
            kernel_backend::force(ops->name);
            const auto r = measure_evm(env, wf.sample_rate, wf, f.opt);
            EXPECT_LE(std::abs(r.evm_rms - ref.evm_rms), 1e-9 * ref.evm_rms)
                << f.name << " on " << ops->name;
            EXPECT_EQ(r.timing_offset, ref.timing_offset)
                << f.name << " on " << ops->name;
            EXPECT_LE(std::abs(r.gain - ref.gain), 1e-9 * std::abs(ref.gain))
                << f.name << " on " << ops->name;
        }
    }
}

} // namespace
