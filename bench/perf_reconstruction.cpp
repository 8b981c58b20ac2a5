/// \file perf_reconstruction.cpp
/// \brief google-benchmark micro-benchmarks of the computational hot spots:
///        kernel evaluation, single-point reconstruction, the dual-rate
///        cost, and a full LMS identification.
///
/// The paper notes the LMS technique's "main drawback ... is that it
/// requires a relatively high computational effort" — these numbers
/// quantify that effort for an offline BIST budget.
#include <benchmark/benchmark.h>

#include "adc/tiadc.hpp"
#include "calib/lms.hpp"
#include "core/random.hpp"
#include "core/units.hpp"
#include "rf/passband.hpp"
#include "sampling/pnbs.hpp"

namespace {

using namespace sdrbist;

const auto g_band = sampling::band_around(1.0 * GHz, 90.0 * MHz);

struct fixture {
    calib::dual_rate_capture capture;
    std::vector<double> probes;
    std::shared_ptr<rf::multitone_signal> sig;

    fixture() {
        rng gen(0xBEEF);
        std::vector<rf::tone> tones;
        for (int i = 0; i < 5; ++i)
            tones.push_back({gen.uniform(g_band.centre() - 18.0 * MHz,
                                         g_band.centre() + 18.0 * MHz),
                             gen.uniform(0.1, 0.25),
                             gen.uniform(0.0, two_pi)});
        const std::size_t n = 720;
        sig = std::make_shared<rf::multitone_signal>(
            std::move(tones), static_cast<double>(n) / (90.0 * MHz) + 1.0 * us);

        adc::tiadc_config tc;
        tc.channel_rate_hz = 90.0 * MHz;
        tc.quant.full_scale = 1.5;
        tc.delay_element.step_s = 1.0 * ps;
        adc::bp_tiadc sampler(tc);
        sampler.program_delay(180.0 * ps);
        capture.fast = sampler.capture(*sig, 0.5 * us, n, 0);
        capture.slow = sampler.capture_divided(*sig, 0.5 * us, n / 2, 2, 1);
        capture.band_fast = g_band;
        capture.band_slow =
            sampling::band_around(g_band.centre(), 45.0 * MHz);

        const auto [lo, hi] = calib::valid_probe_interval(capture);
        rng pg(0x77);
        probes = calib::make_probe_times(pg, 300, lo, hi);
    }
};

const fixture& fix() {
    static const fixture f;
    return f;
}

void bm_kernel_eval(benchmark::State& state) {
    const sampling::kohlenberg_kernel kern(g_band, 180.0 * ps);
    double t = 1.3 * ns;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kern.s(t));
        t += 0.11 * ns;
        if (t > 100.0 * ns)
            t = 1.3 * ns;
    }
}
BENCHMARK(bm_kernel_eval);

void bm_reconstruct_point(benchmark::State& state) {
    const auto taps = static_cast<std::size_t>(state.range(0));
    const auto& f = fix();
    const sampling::pnbs_reconstructor recon(
        f.capture.fast.even, f.capture.fast.odd, f.capture.fast.period_s,
        f.capture.fast.t_start, f.capture.band_fast, 180.0 * ps, {taps, 8.0});
    double t = recon.valid_begin();
    const double step = 7.7 * ns;
    for (auto _ : state) {
        benchmark::DoNotOptimize(recon.value(t));
        t += step;
        if (t > recon.valid_end())
            t = recon.valid_begin();
    }
}
BENCHMARK(bm_reconstruct_point)->Arg(21)->Arg(61)->Arg(121);

void bm_skew_cost(benchmark::State& state) {
    const auto& f = fix();
    const calib::dual_rate_cost cost(f.capture, f.probes, {61, 8.0});
    for (auto _ : state)
        benchmark::DoNotOptimize(cost(200.0 * ps));
}
BENCHMARK(bm_skew_cost)->Unit(benchmark::kMillisecond);

void bm_full_lms(benchmark::State& state) {
    const auto& f = fix();
    const calib::lms_skew_estimator est{calib::lms_options{}};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            est.estimate(f.capture, 100.0 * ps, f.probes));
}
BENCHMARK(bm_full_lms)->Unit(benchmark::kMillisecond);

void bm_capture(benchmark::State& state) {
    const auto& f = fix();
    adc::tiadc_config tc;
    tc.channel_rate_hz = 90.0 * MHz;
    tc.quant.full_scale = 1.5;
    tc.delay_element.step_s = 1.0 * ps;
    adc::bp_tiadc sampler(tc);
    sampler.program_delay(180.0 * ps);
    std::uint64_t idx = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.capture(*f.sig, 0.5 * us, 720, idx++));
}
BENCHMARK(bm_capture)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
