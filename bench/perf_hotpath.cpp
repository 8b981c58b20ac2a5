// Hot-path kernel engine bench: the two inner loops every campaign
// scenario traverses thousands of times, timed fast-path vs reference.
//
//  * PNBS uniform() reconstruction — the table-driven Kohlenberg
//    evaluation (per-term polyphase tables read by the dispatched
//    blend_dot) against the per-tap transcendental yardstick (paper
//    eq. (6), tests/support/pnbs_yardstick.hpp).
//
//  * PNBS kernel tables — sampling::pnbs_tap_tables read time and read
//    error against the exact windowed kernel; build time and page faults
//    on fresh and on recycled storage (sampling::table_storage_scope).
//
//  * Band-plan search — the stimulus stage's search
//    (bist::choose_bist_band_plan) per catalogue preset: ms and the
//    dual-rate discriminations it evaluates.
//
//  * Windowed-sinc interpolated capture — the polyphase-LUT interpolator
//    behind every BP-TIADC capture against the two-Bessel-series-per-tap
//    yardstick (tests/support/interp_yardstick.hpp).
//
//  * Envelope reconstruction — bist::reconstruct_envelope (the direct
//    complex envelope of the PNBS product form, then a short FIR) at the
//    dqpsk-1M preset's shape, per envelope sample, with its oversampling M,
//    FIR length and interior error against the dense passband grid + DDC
//    yardstick it replaced (also timed).
//
//  * DDC — digital_downconvert (the yardstick's second half), which
//    evaluates its anti-alias FIR only at the kept outputs, against an
//    inline filter-every-sample-then-subsample reference at the dqpsk-1M
//    preset's shape.  The two must agree exactly; the bench exits 1
//    otherwise.
//
//  * EVM matched filter — waveform::srrc_matched_filter (the memoised
//    polyphase SRRC table read through the dispatched blend_dot_cplx)
//    against the closed-form per-tap yardstick it replaced
//    (tests/support/evm_yardstick.hpp), per matched output, at the
//    dqpsk-1M preset's shape (sps ≈ 14.9, α = 0.35).
//
//  * Dual-rate cost — calib::dual_rate_cost (even sums precomputed once,
//    odd-stream row sums filled on first use) driven by Algorithm 1 from
//    d0 = m/2 on a fresh cost per repetition, so every repetition pays the
//    build and the row-sum fills a calibration pays; per cost evaluation
//    against the direct per-evaluation reconstruction of both captures
//    (tests/support/skew_cost_yardstick.hpp), at the paper's shape (90 +
//    45 MHz captures, 300 probes, 61 taps).
//
//  * Random streams — core/random.hpp's MT19937-64 per engine word (and
//    its state twist per word on every CPU-supported backend), per
//    gaussian() draw, and per draw of gaussian_fill (both polar outputs
//    kept; what the transmitter noise and the clock jitter use).
//
//  * SIMD backend primitives — every compiled-in, CPU-supported kernel
//    backend (scalar/AVX2/NEON) timed on the primitive shapes the hot
//    paths dispatch to, reported as speedup vs the scalar backend.
//
// Emits one BENCH_JSON line per kernel with ns/point for both paths, the
// speedup, and the max relative error of the fast path (normalised to the
// reference RMS), plus one BENCH_JSON line per backend with the per-kernel
// speedups.  Run with --quick for CI smoke timing.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hpp"
#include "bist/pipeline.hpp"
#include "bist/spectrum.hpp"
#include "calib/dual_rate.hpp"
#include "calib/lms.hpp"
#include "core/math_util.hpp"
#include "core/random.hpp"
#include "core/simd/kernel_backend.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "dsp/ddc.hpp"
#include "dsp/fir.hpp"
#include "dsp/interpolator.hpp"
#include "dsp/window.hpp"
#include "rf/passband.hpp"
#include "sampling/band.hpp"
#include "sampling/pnbs.hpp"
#include "support/evm_yardstick.hpp"
#include "support/interp_yardstick.hpp"
#include "support/pnbs_yardstick.hpp"
#include "support/skew_cost_yardstick.hpp"
#include "waveform/evm.hpp"
#include "waveform/standard.hpp"

namespace {

using namespace sdrbist;

/// Best-of-`reps` wall time of fn(), in seconds.
template <class F> double best_seconds(F&& fn, int reps) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

double max_rel_error(const std::vector<double>& ref,
                     const std::vector<double>& fast) {
    const double scale = rms(ref);
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        worst = std::max(worst, std::abs(fast[i] - ref[i]));
    return worst / scale;
}

void bench_pnbs_uniform(std::size_t n_points, int reps) {
    const sampling::band_spec band =
        sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = 180.0 * ps;
    const std::size_t n = 600;

    rng gen(0xB157);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i)
        tones.push_back({gen.uniform(band.f_lo + 8.0 * MHz,
                                     band.f_hi - 8.0 * MHz),
                         gen.uniform(0.2, 1.0), gen.uniform(0.0, two_pi)});
    const rf::multitone_signal sig(std::move(tones),
                                   static_cast<double>(n) * period + 1.0 * us);

    std::vector<double> even(n), odd(n);
    for (std::size_t k = 0; k < n; ++k) {
        even[k] = sig.value(static_cast<double>(k) * period);
        odd[k] = sig.value(static_cast<double>(k) * period + d);
    }
    const sampling::pnbs_reconstructor recon(even, odd, period, 0.0, band, d,
                                             {61, 8.0});
    const testing::pnbs_yardstick yardstick(even, odd, period, 0.0, band, d,
                                            {61, 8.0});

    // Dense grid spanning the whole valid reconstruction interval.
    const double t_lo = recon.valid_begin();
    const double rate =
        static_cast<double>(n_points) / (recon.valid_end() - t_lo);

    std::vector<double> fast, ref;
    const double s_fast = best_seconds(
        [&] { fast = recon.uniform(t_lo, rate, n_points); }, reps);
    const double s_ref = best_seconds(
        [&] { ref = yardstick.uniform(t_lo, rate, n_points); }, reps);

    const double err = max_rel_error(ref, fast);
    benchutil::json_record rec;
    rec.add("kernel", std::string("pnbs_uniform"));
    rec.add("backend", std::string(simd::kernel_backend::select().name));
    rec.add("points", n_points);
    rec.add("taps", std::size_t{61});
    rec.add("ref_ns_per_point", 1e9 * s_ref / static_cast<double>(n_points));
    rec.add("fast_ns_per_point",
            1e9 * s_fast / static_cast<double>(n_points));
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", err);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "pnbs uniform: " << 1e9 * s_ref / n_points << " -> "
              << 1e9 * s_fast / n_points << " ns/point  (x"
              << s_ref / s_fast << ", max rel err " << err << ")\n";
}

void bench_sinc_capture(std::size_t n_points, int reps) {
    // Capture-path setup: complex envelope at 180 MHz feeding a 1 GHz
    // carrier, probed at jittered nonuniform instants like a BP-TIADC
    // record.
    const double env_rate = 180.0 * MHz;
    const std::size_t n_env = 4096;
    rng gen(0xCAB7);
    std::vector<std::complex<double>> env(n_env);
    // Smooth in-band envelope: random phasor sum at a few offsets.
    for (std::size_t i = 0; i < n_env; ++i) {
        const double tt = static_cast<double>(i) / env_rate;
        env[i] = std::polar(1.0, two_pi * 11.0 * MHz * tt + 0.4) +
                 std::polar(0.6, -two_pi * 23.0 * MHz * tt + 1.1);
    }
    const dsp::sinc_interpolator interp(std::move(env), env_rate, 32, 10.0);

    const double t_lo = interp.valid_begin();
    const double t_hi = interp.valid_end();
    std::vector<double> t(n_points);
    const double channel_period = (t_hi - t_lo) / static_cast<double>(n_points + 1);
    for (std::size_t k = 0; k < n_points; ++k)
        t[k] = t_lo + static_cast<double>(k) * channel_period +
               gen.gaussian(0.0, 3.0 * ps);

    std::vector<std::complex<double>> fast, ref;
    const double s_fast =
        best_seconds([&] { fast = interp.at(t); }, reps);
    const double s_ref = best_seconds(
        [&] {
            ref.resize(t.size());
            for (std::size_t i = 0; i < t.size(); ++i)
                ref[i] = testing::interp_reference(
                    interp.samples(), env_rate, 32, 10.0, t[i]);
        },
        reps);

    // Relative error on the real capture samples (Re/Im both bounded).
    double scale = 0.0;
    double worst = 0.0;
    for (const auto& v : ref)
        scale += std::norm(v);
    scale = std::sqrt(scale / static_cast<double>(ref.size()));
    for (std::size_t i = 0; i < ref.size(); ++i)
        worst = std::max(worst, std::abs(fast[i] - ref[i]));
    const double err = worst / scale;

    benchutil::json_record rec;
    rec.add("kernel", std::string("sinc_capture"));
    rec.add("backend", std::string(simd::kernel_backend::select().name));
    rec.add("points", n_points);
    rec.add("half_taps", std::size_t{32});
    rec.add("ref_ns_per_point", 1e9 * s_ref / static_cast<double>(n_points));
    rec.add("fast_ns_per_point",
            1e9 * s_fast / static_cast<double>(n_points));
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", err);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "sinc capture: " << 1e9 * s_ref / n_points << " -> "
              << 1e9 * s_fast / n_points << " ns/point  (x"
              << s_ref / s_fast << ", max rel err " << err << ")\n";
}

/// Envelope bench at the dqpsk-1M reconstruction shape: a 90 MHz band
/// around a 380 MHz carrier, 61 taps, a 6.21 MHz cutoff and the envelope
/// rate the pipeline derives from it (2.4 × cutoff, decimation 131 of a
/// 1.955 GS/s dense grid).  The signal is six tones within a quarter of the
/// cutoff of the carrier, where a graded signal sits.  The error is the
/// largest |envelope - yardstick| beyond one FIR half-span (the longer
/// FIR's) from either edge, over the yardstick's peak.
void bench_envelope(std::size_t pairs, int reps) {
    const double fc = 380.0 * MHz;
    const auto band = sampling::band_around(fc, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const double d = sampling::kohlenberg_kernel::optimal_delay(band);
    const double cutoff = 6.21 * MHz;

    rng gen(0xE4E1);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 6; ++i)
        tones.push_back({gen.uniform(fc - cutoff / 4.0, fc + cutoff / 4.0),
                         gen.uniform(0.2, 1.0), gen.uniform(0.0, two_pi)});
    const rf::multitone_signal sig(
        std::move(tones), static_cast<double>(pairs) * period + 1.0 * us);
    std::vector<double> even(pairs), odd(pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
        even[k] = sig.value(static_cast<double>(k) * period);
        odd[k] = sig.value(static_cast<double>(k) * period + d);
    }
    const sampling::pnbs_reconstructor recon(even, odd, period, 0.0, band, d,
                                             {61, 8.0});
    const testing::pnbs_yardstick yardstick(even, odd, period, 0.0, band, d,
                                            {61, 8.0});

    bist::spectrum_options opt;
    opt.mix_frequency = fc;
    opt.ddc_cutoff_hz = cutoff;
    opt.envelope_rate_min = 2.4 * cutoff;
    const auto plan = bist::plan_envelope(recon, opt);
    dsp::ddc_options ddc = plan.lowpass;
    ddc.carrier_hz = fc;
    ddc.sample_rate = plan.dense_rate;
    ddc.decimation = plan.decimation;

    bist::reconstructed_envelope env;
    const double s_env = best_seconds(
        [&] { env = bist::reconstruct_envelope(recon, opt); }, reps);
    std::vector<std::complex<double>> ref;
    const double s_ref = best_seconds(
        [&] {
            const auto x =
                recon.uniform(plan.t0, plan.dense_rate, plan.n_dense);
            ref = dsp::digital_downconvert(x, ddc);
            const auto rot = std::polar(1.0, -two_pi * fc * plan.t0);
            for (auto& v : ref)
                v *= rot;
        },
        1);

    const std::size_t taps = dsp::ddc_lowpass(plan.lowpass).size();
    const std::size_t edge =
        std::max((dsp::ddc_lowpass(ddc).size() / 2 + plan.decimation - 1) /
                     plan.decimation,
                 (taps / 2 + plan.oversample - 1) / plan.oversample);
    double peak = 0.0;
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        peak = std::max(peak, std::abs(ref[i]));
        if (i >= edge && i + edge < ref.size())
            worst = std::max(worst, std::abs(env.samples[i] - ref[i]));
    }

    const double n = static_cast<double>(plan.count);
    benchutil::json_record rec;
    rec.add("kernel", std::string("envelope"));
    rec.add("backend", std::string(simd::kernel_backend::select().name));
    rec.add("envelope_samples", plan.count);
    rec.add("oversample", plan.oversample);
    rec.add("fir_taps", taps);
    rec.add("ns_per_envelope_sample", 1e9 * s_env / n);
    rec.add("yardstick_ns_per_envelope_sample", 1e9 * s_ref / n);
    rec.add("speedup", s_ref / s_env);
    rec.add("interior_max_rel_error", worst / peak);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "envelope: " << 1e9 * s_ref / n << " -> " << 1e9 * s_env / n
              << " ns/envelope sample  (x" << s_ref / s_env << ", M "
              << plan.oversample << ", " << taps
              << " taps, interior rel err " << worst / peak << ")\n";
}

/// DDC bench at the dqpsk-1M reconstruction shape: 155031 dense samples
/// at 1.955 GS/s around a 380 MHz carrier, decimation 131, a 6745-tap
/// anti-alias FIR with a 6.21 MHz passband.  The reference is the
/// pre-decimation DDC written out inline: mix, filter every input sample
/// (zero-padded, ascending taps), keep every D-th output, scale by 2.
/// Returns the max |digital_downconvert - reference| over both parts.
double bench_ddc(std::size_t n_in, int reps) {
    const double fs = 1.955 * GHz;
    const double fc = 380.0 * MHz;
    const std::size_t decim = 131;
    const std::size_t taps = 6745;
    const double cutoff = 6.21 * MHz;

    rng gen(0xDDC1);
    std::vector<double> x(n_in);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 6; ++i)
        tones.push_back({gen.uniform(fc - 6.0 * MHz, fc + 6.0 * MHz),
                         gen.uniform(0.2, 1.0), gen.uniform(0.0, two_pi)});
    for (std::size_t n = 0; n < n_in; ++n) {
        const double t = static_cast<double>(n) / fs;
        for (const auto& tone : tones)
            x[n] += tone.amplitude *
                    std::cos(two_pi * tone.frequency_hz * t + tone.phase_rad);
        x[n] += gen.gaussian(0.0, 0.05);
    }

    dsp::ddc_options opt;
    opt.carrier_hz = fc;
    opt.sample_rate = fs;
    opt.decimation = decim;
    opt.fir_taps = taps;
    opt.cutoff_hz = cutoff;

    // The FIR digital_downconvert designs for these options.
    const auto h = dsp::ddc_lowpass(opt);

    auto reference = [&] {
        std::vector<std::complex<double>> mixed(n_in);
        const double dphi = -two_pi * fc / fs;
        for (std::size_t n = 0; n < n_in; ++n)
            mixed[n] = x[n] * std::polar(1.0, dphi * static_cast<double>(n));
        const auto half = static_cast<long>(taps / 2);
        const auto n_x = static_cast<long>(n_in);
        std::vector<std::complex<double>> filtered(n_in);
        for (long n = 0; n < n_x; ++n) {
            std::complex<double> acc{};
            for (long k = 0; k < static_cast<long>(taps); ++k) {
                const long idx = n + half - k;
                if (idx >= 0 && idx < n_x)
                    acc += h[static_cast<std::size_t>(k)] *
                           mixed[static_cast<std::size_t>(idx)];
            }
            filtered[static_cast<std::size_t>(n)] = acc;
        }
        std::vector<std::complex<double>> out;
        for (std::size_t n = 0; n < n_in; n += decim)
            out.push_back(2.0 * filtered[n]);
        return out;
    };

    std::vector<std::complex<double>> fast, ref;
    const double s_fast = best_seconds(
        [&] { fast = dsp::digital_downconvert(x, opt); }, reps);
    const double s_ref = best_seconds([&] { ref = reference(); }, 1);

    double max_diff = fast.size() == ref.size() ? 0.0 : 1e300;
    for (std::size_t i = 0; i < std::min(fast.size(), ref.size()); ++i)
        max_diff = std::max({max_diff, std::abs(fast[i].real() - ref[i].real()),
                             std::abs(fast[i].imag() - ref[i].imag())});

    const double n = static_cast<double>(n_in);
    benchutil::json_record rec;
    rec.add("kernel", std::string("ddc"));
    rec.add("input_samples", n_in);
    rec.add("decimation", decim);
    rec.add("taps", taps);
    rec.add("ref_ns_per_input_sample", 1e9 * s_ref / n);
    rec.add("fast_ns_per_input_sample", 1e9 * s_fast / n);
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_abs_diff", max_diff);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "ddc: " << 1e9 * s_ref / n << " -> " << 1e9 * s_fast / n
              << " ns/input sample  (x" << s_ref / s_fast
              << ", max abs diff " << max_diff << ")\n";
    return max_diff;
}

/// EVM matched-filter bench at the dqpsk-1M shape: 1 MS/s symbols, α =
/// 0.35, an envelope at 14.9 samples per symbol.  Every symbol of a noise
/// record is matched-filtered at `offsets` timing offsets spread over ±½
/// symbol, as the timing search does, once through the table and once
/// through the closed-form yardstick.  The error is the largest
/// |table - yardstick| over the yardstick's Σ|env·h| (every window is
/// whole here).
void bench_evm(std::size_t symbols, std::size_t offsets, int reps) {
    const double rs = 1.0 * MHz;
    const double ts = 1.0 / rs;
    const double fs = 14.9 * rs;
    const double alpha = 0.35;
    const double span = waveform::matched_span_symbols;
    const auto n = static_cast<std::size_t>(
        (static_cast<double>(symbols) + 2.0 * span + 1.0) * fs * ts);
    rng gen(0xE7B1);
    std::vector<std::complex<double>> env(n);
    for (auto& v : env)
        v = {gen.gaussian(), gen.gaussian()};
    std::vector<double> centres;
    for (std::size_t k = 0; k < symbols; ++k)
        for (std::size_t i = 0; i < offsets; ++i)
            centres.push_back(
                (span + 0.5 + static_cast<double>(k)) * ts +
                (static_cast<double>(i) / static_cast<double>(offsets) -
                 0.5) *
                    ts);

    const waveform::srrc_matched_filter mf(fs, rs, alpha);
    std::vector<std::complex<double>> fast(centres.size());
    std::vector<sdrbist::testing::matched_sum> ref(centres.size());
    const double s_fast = best_seconds(
        [&] {
            for (std::size_t i = 0; i < centres.size(); ++i)
                fast[i] = mf(env, centres[i]);
        },
        reps);
    const double s_ref = best_seconds(
        [&] {
            for (std::size_t i = 0; i < centres.size(); ++i)
                ref[i] = sdrbist::testing::matched_output(env, fs, centres[i],
                                                          ts, alpha);
        },
        reps);

    double worst = 0.0;
    double taps = 0.0; // every window is interior, so none is clamped
    for (std::size_t i = 0; i < centres.size(); ++i) {
        worst = std::max(worst,
                         std::abs(fast[i] - ref[i].value) / ref[i].abs_sum);
        taps += std::floor((centres[i] + span * ts) * fs) -
                std::ceil((centres[i] - span * ts) * fs) + 1.0;
    }
    const double m = static_cast<double>(centres.size());
    taps /= m;

    benchutil::json_record rec;
    rec.add("kernel", std::string("evm"));
    rec.add("backend", std::string(simd::kernel_backend::select().name));
    rec.add("matched_outputs", centres.size());
    rec.add("samples_per_symbol", fs * ts);
    rec.add("taps_per_output", taps);
    rec.add("phase_steps", waveform::srrc_matched_filter::phase_steps);
    rec.add("table_bytes", mf.table().size() * sizeof(double));
    rec.add("ns_per_output", 1e9 * s_fast / m);
    rec.add("yardstick_ns_per_output", 1e9 * s_ref / m);
    rec.add("speedup", s_ref / s_fast);
    rec.add("max_rel_error", worst);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "evm: " << 1e9 * s_ref / m << " -> " << 1e9 * s_fast / m
              << " ns/matched output  (x" << s_ref / s_fast << ", ~" << taps
              << " taps, P " << waveform::srrc_matched_filter::phase_steps
              << ", table " << mf.table().size() * sizeof(double)
              << " B, max rel err " << worst << ")\n";
}

/// PNBS kernel table bench at the paper's band (1 GHz, 90 MHz, 61 taps,
/// β = 8): ns per read (both terms' blends at one phase over the full
/// window, at random phases in [−1, 0.5]), and the largest read error
/// against the exact windowed kernel (−1)^{k_m·j}·w(x/span)·sinc(f_m·T·x) with
/// dsp::kaiser_window_at, relative to the read's Σ|terms|.
void bench_pnbs_table(std::size_t reads, int reps) {
    const auto band = sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const sampling::pnbs_options opt{61, 8.0};
    const auto& ops = simd::kernel_backend::select();
    const sampling::pnbs_tap_tables tables(band, period, opt);

    rng gen(0x7AB1);
    const auto x = gen.uniform_vector(opt.taps, -1.0, 1.0);
    std::vector<double> phases(reads);
    for (auto& p : phases)
        p = gen.uniform(-1.0, 0.5);
    const long half = tables.half;
    double sink = 0.0;
    const double s_read = best_seconds(
        [&] {
            for (const double p : phases) {
                const auto s = tables.read(ops, x.data(), p, -half, opt.taps);
                sink += s.h0 + s.h1;
            }
        },
        reps);

    const double span = static_cast<double>(half) + 1.0;
    const double gamma[2] = {tables.terms.f0 * period,
                             tables.terms.f1 * period};
    const long k_m[2] = {tables.terms.k, tables.terms.k + 1};
    double worst = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(reads, 300); ++i) {
        const double p = phases[i];
        const auto got = tables.read(ops, x.data(), p, -half, opt.taps);
        const double sums[2] = {got.h0, got.h1};
        for (int m = 0; m < 2; ++m) {
            double want = 0.0;
            double mag = 0.0;
            for (long j = -half; j <= half; ++j) {
                const double xj = p - static_cast<double>(j);
                const bool flip = (k_m[m] & 1L) != 0 && (j & 1L) != 0;
                const double term =
                    x[static_cast<std::size_t>(j + half)] *
                    (flip ? -1.0 : 1.0) *
                    dsp::kaiser_window_at(xj / span, opt.kaiser_beta) *
                    sinc(gamma[m] * xj);
                want += term;
                mag += std::abs(term);
            }
            worst = std::max(worst, std::abs(sums[m] - want) / mag);
        }
    }

    const double n = static_cast<double>(reads);
    benchutil::json_record rec;
    rec.add("kernel", std::string("pnbs_table"));
    rec.add("backend", std::string(ops.name));
    rec.add("taps", opt.taps);
    rec.add("phase_steps", sampling::pnbs_tap_tables::phase_steps);
    rec.add("table_bytes", tables.cells.size() * sizeof(double));
    rec.add("ns_per_read", 1e9 * s_read / n);
    rec.add("max_rel_error", worst);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "pnbs table: read " << 1e9 * s_read / n
              << " ns (both terms, " << opt.taps << " taps), max rel err "
              << worst << "\n";
    if (sink == 42.25) // defeat dead-code elimination of the timed loop
        std::cout << "";
}

/// Minor page faults of this process so far.
long minor_faults() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_minflt;
}

/// PNBS table builds at the paper's band and 61 taps, per build: on fresh
/// storage (`builds` tables kept alive together, so each is written to
/// memory no table used before and takes its page faults) and on storage
/// recycled through a sampling::table_storage_scope (built one after
/// another, each on the cells the last one left, as the tables of a
/// bist_session::run_until are), with the minor page faults per build.
void bench_pnbs_table_build(std::size_t builds, int reps) {
    const auto band = sampling::band_around(1.0 * GHz, 90.0 * MHz);
    const double period = 1.0 / band.bandwidth();
    const sampling::pnbs_options opt{61, 8.0};
    (void)sampling::pnbs_tap_tables(band, period, opt); // the window grid
    const auto per_build = [&](auto&& build_all) {
        long faults = 0;
        const double s = best_seconds(
            [&] {
                const long f0 = minor_faults();
                build_all();
                faults = minor_faults() - f0;
            },
            reps);
        const double n = static_cast<double>(builds);
        return std::pair{1e6 * s / n, static_cast<double>(faults) / n};
    };
    const auto [fresh_us, fresh_faults] = per_build([&] {
        std::vector<sampling::pnbs_tap_tables> alive;
        alive.reserve(builds);
        for (std::size_t i = 0; i < builds; ++i)
            alive.emplace_back(band, period, opt);
    });
    const auto [reused_us, reused_faults] = per_build([&] {
        const sampling::table_storage_scope scope;
        for (std::size_t i = 0; i < builds; ++i)
            (void)sampling::pnbs_tap_tables(band, period, opt);
    });

    benchutil::json_record rec;
    rec.add("kernel", std::string("pnbs_table_build"));
    rec.add("taps", opt.taps);
    rec.add("builds", builds);
    rec.add("fresh_us", fresh_us);
    rec.add("fresh_faults", fresh_faults);
    rec.add("reused_us", reused_us);
    rec.add("reused_faults", reused_faults);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "pnbs table build: fresh " << fresh_us << " us ("
              << fresh_faults << " page faults), reused " << reused_us
              << " us (" << reused_faults << " page faults)\n";
}

/// The stimulus stage's band-plan search (bist::choose_bist_band_plan)
/// per catalogue preset, in a table storage scope as a session runs it:
/// ms per search (best of reps) and the discriminations it evaluates.
void bench_band_plan_search(int reps) {
    for (const auto& preset : waveform::standard_catalogue()) {
        bist::bist_config cfg;
        cfg.preset = preset;
        const auto stim = bist::run_stimulus(cfg);
        std::size_t evaluated = 0;
        const double s = best_seconds(
            [&] {
                const sampling::table_storage_scope scope;
                evaluated = bist::choose_bist_band_plan(
                                cfg, stim.occupied_bw_calibration_hz,
                                stim.occupied_bw_graded_hz)
                                .evaluated;
            },
            reps);

        benchutil::json_record rec;
        rec.add("kernel", std::string("band_plan_search"));
        rec.add("preset", preset.name);
        rec.add("ms", 1e3 * s);
        rec.add("discriminations", evaluated);
        rec.add("carrier_hz", stim.carrier_hz);
        benchutil::emit_bench_json("perf_hotpath", rec);

        std::cout << "band-plan search " << preset.name << ": " << 1e3 * s
                  << " ms, " << evaluated << " discriminations\n";
    }
}

/// Dual-rate cost bench at the paper's shape: noise-free dual-rate captures
/// of a multitone (1 GHz carrier, 90 MHz fast band, 45 MHz slow band, D =
/// 180 ps), 300 probes, 61 taps.  Timed: a fresh cost's build, and build
/// plus lms_skew_estimator::minimise from d0 = m/2 (the calibration
/// stage's path); us_per_eval is the LMS run's time beyond the build over
/// its cost evaluations.  The yardstick and the error use `hypotheses` D̂
/// spread over ]0.1·m, 0.9·m[ — the LMS search's range — on a fresh cost;
/// the error is the largest |factored - yardstick| over the yardstick's
/// cost.
void bench_dual_rate_cost(std::size_t hypotheses, int reps) {
    const double fc = 1.0 * GHz;
    const double b = 90.0 * MHz;
    const double d_true = 180.0 * ps;
    const std::size_t n_fast = 720;

    rng gen(0xDC05);
    std::vector<rf::tone> tones;
    for (int i = 0; i < 5; ++i)
        tones.push_back({gen.uniform(fc - 18.0 * MHz, fc + 18.0 * MHz),
                         gen.uniform(0.1, 0.25), gen.uniform(0.0, two_pi)});
    const rf::multitone_signal sig(
        std::move(tones), static_cast<double>(n_fast) / b + 1.0 * us);

    calib::dual_rate_capture cap;
    cap.band_fast = sampling::band_around(fc, b);
    cap.band_slow = sampling::band_around(fc, b / 2.0);
    auto sample = [&](adc::nonuniform_capture& rec, double period,
                      std::size_t n) {
        rec.period_s = period;
        rec.true_delay_s = d_true;
        rec.even.resize(n);
        rec.odd.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            const double t = static_cast<double>(k) * period;
            rec.even[k] = sig.value(t);
            rec.odd[k] = sig.value(t + d_true);
        }
    };
    sample(cap.fast, 1.0 / b, n_fast);
    sample(cap.slow, 2.0 / b, n_fast / 2);
    const sampling::pnbs_options opt{61, 8.0};
    const auto [lo, hi] = calib::valid_probe_interval(cap, opt);
    rng probe_gen(0xDC06);
    const auto probes = calib::make_probe_times(probe_gen, 300, lo, hi);

    const double m = calib::max_search_delay(cap);
    std::vector<double> d_hat;
    for (std::size_t i = 0; i < hypotheses; ++i) {
        const double d = (0.1 + 0.8 * (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(hypotheses)) *
                         m;
        if (sampling::kohlenberg_kernel::delay_is_stable(cap.band_fast, d) &&
            sampling::kohlenberg_kernel::delay_is_stable(cap.band_slow, d))
            d_hat.push_back(d);
    }
    const double evals = static_cast<double>(d_hat.size());

    const double s_build = best_seconds(
        [&] { (void)calib::dual_rate_cost(cap, probes, opt); }, reps);
    const calib::lms_skew_estimator estimator;
    std::size_t lms_evals = 0;
    const double s_lms = best_seconds(
        [&] {
            const calib::dual_rate_cost cost(cap, probes, opt);
            lms_evals = estimator
                            .minimise([&](double d) { return cost(d); },
                                      0.5 * m, m)
                            .cost_evaluations;
        },
        reps);
    const double s_eval =
        (s_lms - s_build) / static_cast<double>(lms_evals);

    std::vector<double> fast(d_hat.size()), ref(d_hat.size());
    const calib::dual_rate_cost cost(cap, probes, opt);
    for (std::size_t i = 0; i < d_hat.size(); ++i)
        fast[i] = cost(d_hat[i]);
    const double s_ref = best_seconds(
        [&] {
            for (std::size_t i = 0; i < d_hat.size(); ++i)
                ref[i] = sdrbist::testing::skew_cost_reference(cap, d_hat[i],
                                                               probes, opt);
        },
        reps);
    const double s_ref_eval = s_ref / evals;
    double worst = 0.0;
    for (std::size_t i = 0; i < d_hat.size(); ++i)
        worst = std::max(worst, std::abs(fast[i] - ref[i]) / ref[i]);

    benchutil::json_record rec;
    rec.add("kernel", std::string("dual_rate_cost"));
    rec.add("backend", std::string(simd::kernel_backend::select().name));
    rec.add("probes", probes.size());
    rec.add("taps", opt.taps);
    rec.add("hypotheses", d_hat.size());
    rec.add("lms_evals", lms_evals);
    rec.add("lms_us", 1e6 * s_lms);
    rec.add("us_per_eval", 1e6 * s_eval);
    rec.add("yardstick_us_per_eval", 1e6 * s_ref_eval);
    rec.add("build_us", 1e6 * s_build);
    rec.add("speedup", s_ref_eval / s_eval);
    rec.add("max_rel_error", worst);
    benchutil::emit_bench_json("perf_hotpath", rec);

    std::cout << "dual-rate cost: " << 1e6 * s_ref_eval << " -> "
              << 1e6 * s_eval << " us/evaluation  (x" << s_ref_eval / s_eval
              << "; fresh cost + LMS " << 1e6 * s_lms << " us over "
              << lms_evals << " evaluations, build " << 1e6 * s_build
              << " us, max rel err " << worst << ")\n";
}

/// Random-stream bench: ns per engine word (next_u64 through the
/// dispatched twist), per gaussian() and per gaussian_fill draw (fills of
/// 4096, the shape of a capture record's jitter), plus the bare twist per
/// word on each CPU-supported backend.  One BENCH_JSON record.
void bench_rng(std::size_t draws, int reps) {
    const double n = static_cast<double>(draws);
    std::uint64_t words_sink = 0;
    double sink = 0.0;
    const double word_ns = 1e9 *
                           best_seconds(
                               [&] {
                                   rng gen(0xB17);
                                   for (std::size_t i = 0; i < draws; ++i)
                                       words_sink += gen.next_u64();
                               },
                               reps) /
                           n;
    const double gaussian_ns = 1e9 *
                               best_seconds(
                                   [&] {
                                       rng gen(0xB17);
                                       for (std::size_t i = 0; i < draws; ++i)
                                           sink += gen.gaussian(0.0, 3e-12);
                                   },
                                   reps) /
                               n;
    std::vector<double> block(4096);
    const std::size_t blocks = std::max<std::size_t>(1, draws / block.size());
    const double fill_ns =
        1e9 *
        best_seconds(
            [&] {
                rng gen(0xB17);
                for (std::size_t b = 0; b < blocks; ++b) {
                    gen.gaussian_fill(block, 3e-12);
                    sink += block[b % block.size()];
                }
            },
            reps) /
        static_cast<double>(blocks * block.size());

    benchutil::json_record rec;
    rec.add("kernel", std::string("rng"));
    rec.add("draws", draws);
    rec.add("ns_per_word", word_ns);
    rec.add("ns_per_gaussian", gaussian_ns);
    rec.add("ns_per_fill_draw", fill_ns);
    rec.add("fill_speedup", gaussian_ns / fill_ns);
    std::cout << "rng: " << word_ns << " ns/word, " << gaussian_ns
              << " ns/gaussian, " << fill_ns << " ns/fill draw; twist";
    for (const auto* ops : simd::kernel_backend::available()) {
        std::vector<std::uint64_t> state(simd::mt_state_words, 0x5EEDull);
        const int twists = 2000;
        const double twist_ns =
            1e9 *
            best_seconds(
                [&] {
                    for (int t = 0; t < twists; ++t)
                        ops->mt_refill(state.data());
                },
                reps) /
            (static_cast<double>(twists) *
             static_cast<double>(simd::mt_state_words));
        words_sink += state[0];
        rec.add(std::string("twist_ns_per_word_") + ops->name, twist_ns);
        std::cout << " " << ops->name << " " << twist_ns << " ns/word";
    }
    std::cout << "\n";
    benchutil::emit_bench_json("perf_hotpath", rec);
    if (sink == 42.25 || words_sink == 42) // keep the timed loops
        std::cout << "";
}

/// Per-backend primitive bench: every CPU-supported backend timed on the
/// kernel shapes the hot paths dispatch to (61-tap PNBS row sums, 64-tap
/// polyphase blends, 4096-sample capture records),
/// reported as speedup of each kernel vs the scalar backend.  One
/// BENCH_JSON record per backend.
void bench_backend_kernels(int reps) {
    using simd::kernel_backend;
    using simd::kernel_ops;

    rng gen(0x51BD);
    // Interpolator shape: 2·half_taps = 64 taps, 4 consecutive LUT rows.
    const std::size_t n_blend = 64;
    // LMS row-sum shape: one 61-tap PNBS table row.
    const std::size_t n_dot = 61;
    const auto rows = gen.uniform_vector(4 * n_blend, -1.0, 1.0);
    const auto w = gen.uniform_vector(4, -1.0, 1.0);
    const auto xr = gen.uniform_vector(n_blend, -1.0, 1.0);
    std::vector<std::complex<double>> xc(n_blend);
    for (auto& v : xc)
        v = {gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
    // Capture-record shape.
    const std::size_t n_rec = 4096;
    const auto rec_in = gen.uniform_vector(n_rec, -3.0, 3.0);
    std::vector<std::complex<double>> env(n_rec);
    for (auto& v : env)
        v = {gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
    const auto cos_wt = gen.uniform_vector(n_rec, -1.0, 1.0);
    const auto sin_wt = gen.uniform_vector(n_rec, -1.0, 1.0);
    std::vector<double> rec_out(n_rec);
    simd::quantize_params qp;
    qp.gain = 1.013;
    qp.offset = -0.004;
    qp.clip_lo = -2.0;
    qp.clip_hi = 2.0 - 1e-9;
    qp.lsb = 4.0 / 1024.0;

    const int calls = 20000; // per timed sample, small-kernel loops
    const int rec_calls = 400;
    double sink = 0.0;

    struct timing {
        double dot_ns = 0.0;        // per tap
        double blend_ns = 0.0;      // per tap
        double blend_cplx_ns = 0.0; // per tap
        double quantize_ns = 0.0;   // per sample
        double mix_ns = 0.0;        // per sample
    };
    auto time_backend = [&](const kernel_ops& ops) {
        timing t;
        t.dot_ns =
            1e9 *
            best_seconds(
                [&] {
                    for (int k = 0; k < calls; ++k)
                        sink += ops.dot(xr.data(), rows.data(), n_dot);
                },
                reps) /
            (static_cast<double>(calls) * static_cast<double>(n_dot));
        t.blend_ns =
            1e9 *
            best_seconds(
                [&] {
                    for (int k = 0; k < calls; ++k)
                        sink += ops.blend_dot(xr.data(), rows.data(), n_blend,
                                              w.data(), n_blend);
                },
                reps) /
            (static_cast<double>(calls) * static_cast<double>(n_blend));
        t.blend_cplx_ns =
            1e9 *
            best_seconds(
                [&] {
                    for (int k = 0; k < calls; ++k)
                        sink += ops.blend_dot_cplx(xc.data(), rows.data(),
                                                   n_blend, w.data(), n_blend)
                                    .real();
                },
                reps) /
            (static_cast<double>(calls) * static_cast<double>(n_blend));
        t.quantize_ns =
            1e9 *
            best_seconds(
                [&] {
                    for (int k = 0; k < rec_calls; ++k) {
                        ops.quantize_midrise(rec_in.data(), rec_out.data(),
                                             n_rec, 0.7, qp);
                        sink += rec_out[k % n_rec];
                    }
                },
                reps) /
            (static_cast<double>(rec_calls) * static_cast<double>(n_rec));
        t.mix_ns = 1e9 *
                   best_seconds(
                       [&] {
                           for (int k = 0; k < rec_calls; ++k) {
                               ops.carrier_mix(env.data(), cos_wt.data(),
                                               sin_wt.data(), rec_out.data(),
                                               n_rec);
                               sink += rec_out[k % n_rec];
                           }
                       },
                       reps) /
                   (static_cast<double>(rec_calls) *
                    static_cast<double>(n_rec));
        return t;
    };

    const timing scalar_t = time_backend(simd::scalar_ops());
    const char* dispatched = kernel_backend::select().name;
    for (const auto* ops : kernel_backend::available()) {
        const timing t = (std::strcmp(ops->name, "scalar") == 0)
                             ? scalar_t
                             : time_backend(*ops);
        const double speedups[] = {
            scalar_t.dot_ns / t.dot_ns,
            scalar_t.blend_ns / t.blend_ns,
            scalar_t.blend_cplx_ns / t.blend_cplx_ns,
            scalar_t.quantize_ns / t.quantize_ns,
            scalar_t.mix_ns / t.mix_ns,
        };
        const double best =
            *std::max_element(std::begin(speedups), std::end(speedups));

        benchutil::json_record rec;
        rec.add("kernel", std::string("backend_kernels"));
        rec.add("backend", std::string(ops->name));
        rec.add("dispatched",
                std::size_t{std::strcmp(ops->name, dispatched) == 0 ? 1u
                                                                    : 0u});
        rec.add("dot_ns_per_tap", t.dot_ns);
        rec.add("blend_dot_ns_per_tap", t.blend_ns);
        rec.add("blend_dot_cplx_ns_per_tap", t.blend_cplx_ns);
        rec.add("quantize_ns_per_sample", t.quantize_ns);
        rec.add("carrier_mix_ns_per_sample", t.mix_ns);
        rec.add("dot_speedup", speedups[0]);
        rec.add("blend_dot_speedup", speedups[1]);
        rec.add("blend_dot_cplx_speedup", speedups[2]);
        rec.add("quantize_speedup", speedups[3]);
        rec.add("carrier_mix_speedup", speedups[4]);
        rec.add("best_speedup", best);
        benchutil::emit_bench_json("perf_hotpath", rec);

        std::cout << "backend " << ops->name << ": dot x" << speedups[0]
                  << ", blend x" << speedups[1] << ", blend_cplx x"
                  << speedups[2] << ", quantize x" << speedups[3]
                  << ", mix x" << speedups[4] << "  (best x" << best
                  << ")\n";
    }
    if (sink == 42.25) // defeat dead-code elimination of the timed loops
        std::cout << "";
}

} // namespace

int main(int argc, char** argv) {
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const std::size_t n_points = quick ? 2000 : 8000;
    const int reps = quick ? 3 : 5;
    bench_pnbs_uniform(n_points, reps);
    bench_sinc_capture(n_points, reps);
    bench_envelope(quick ? 2000 : 7200, reps);
    const double ddc_diff = bench_ddc(quick ? 40000 : 155031, reps);
    bench_evm(quick ? 60 : 96, quick ? 9 : 45, reps);
    bench_pnbs_table(quick ? 2000 : 20000, reps);
    bench_pnbs_table_build(quick ? 8 : 32, reps);
    bench_band_plan_search(reps);
    bench_dual_rate_cost(quick ? 8 : 32, reps);
    bench_rng(quick ? 400000 : 4000000, reps);
    bench_backend_kernels(reps);
    if (ddc_diff != 0.0) {
        std::cerr << "FAIL: digital_downconvert differs from "
                     "filter-then-subsample by "
                  << ddc_diff << "\n";
        return 1;
    }
    return 0;
}
