#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "bist/spectrum.hpp"
#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/cache.hpp"
#include "campaign/journal.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "dsp/biquad.hpp"
#include "dsp/ddc.hpp"

namespace bench {

using namespace sdrbist;
namespace fs = std::filesystem;

const char* stage_key(bist::stage s) {
    switch (s) {
    case bist::stage::stimulus: return "stimulus";
    case bist::stage::tx_capture: return "tx_capture";
    case bist::stage::calibration: return "calibration";
    case bist::stage::reconstruction: return "reconstruction";
    case bist::stage::grading: return "grading";
    }
    return "unknown";
}

namespace {

double ns_since(steady::time_point t0) {
    return std::chrono::duration<double, std::nano>(steady::now() - t0)
        .count();
}

/// Run `f` inside span `name`, adding its wall time to `acc`.
template <typename F>
auto timed(span_recorder& rec, const char* name, std::uint64_t request,
           double& acc, F&& f) {
    const auto span = rec.span(name, request);
    const auto t0 = steady::now();
    auto result = f();
    acc += ns_since(t0);
    return result;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_capture(const adc::nonuniform_capture& a,
                  const adc::nonuniform_capture& b) {
    return same_bits(a.even, b.even) && same_bits(a.odd, b.odd) &&
           same_bits(a.period_s, b.period_s) && same_bits(a.t_start, b.t_start);
}

double occupied_bandwidth(const waveform::generator_config& g) {
    return g.symbol_rate * (1.0 + g.rolloff);
}

adc::bp_tiadc programmed_sampler(const bist::bist_config& config) {
    adc::bp_tiadc sampler(config.tiadc);
    sampler.program_delay(config.dcde_target_delay_s);
    return sampler;
}

// Each replay mirrors the matching runner in bist/pipeline.cpp call for
// call; the element-exact check afterwards is what proves it still does.

void replay_stimulus(const bist::bist_session& s, span_recorder& rec,
                     std::uint64_t req, replay_totals& t) {
    const auto& config = s.config();
    const auto& own = s.stimulus();
    double& acc = t.attributed_ns[0];
    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    const auto graded = timed(rec, "waveform.generate", req, acc, [&] {
        return waveform::generate_baseband(config.preset.stimulus);
    });
    waveform::generator_config cal_cfg = config.use_calibration_stimulus
                                             ? config.calibration_stimulus
                                             : config.preset.stimulus;
    if (config.use_calibration_stimulus &&
        occupied_bandwidth(cal_cfg) > 0.75 * b1)
        cal_cfg.symbol_rate = 0.22 * b1 / (1.0 + cal_cfg.rolloff) * 1.5;
    const auto calibration = timed(rec, "waveform.generate", req, acc, [&] {
        return waveform::generate_baseband(cal_cfg);
    });

    const double occ_cal = occupied_bandwidth(cal_cfg);
    const double occ_max =
        std::max(occ_cal, occupied_bandwidth(config.preset.stimulus));
    const double carrier = timed(rec, "calib.band_plan", req, acc, [&] {
        constexpr double disc_threshold = 1e-2;
        const double nominal = config.preset.default_carrier_hz;
        double best_disc = -1.0;
        double best_carrier = nominal;
        for (const double frac :
             {0.0, 0.25, -0.25, 0.125, -0.125, 0.375, -0.375}) {
            const double cand = nominal + frac * b1;
            const auto plan = calib::choose_band_plan(cand, b, b1, occ_cal,
                                                      occ_max, disc_threshold);
            const double disc =
                calib::dual_rate_discrimination(plan, cand, occ_cal);
            if (disc > best_disc) {
                best_disc = disc;
                best_carrier = cand;
            }
            if (disc >= disc_threshold)
                break;
        }
        return best_carrier;
    });

    if (!same_bits(graded.samples, own.stimulus.samples) ||
        !same_bits(calibration.samples, own.calibration.samples))
        t.stale.insert("waveform.generate");
    if (!same_bits(carrier, own.carrier_hz))
        t.stale.insert("calib.band_plan");
}

void replay_tx_capture(const bist::bist_session& s, span_recorder& rec,
                       std::uint64_t req, replay_totals& t) {
    const auto& config = s.config();
    const auto& stim = s.stimulus();
    const auto& own = s.tx_capture();
    double& acc = t.attributed_ns[1];
    const double b = config.tiadc.channel_rate_hz;
    const double b1 = b / static_cast<double>(config.slow_divider);

    rf::tx_config txc = config.tx;
    txc.carrier_hz = stim.carrier_hz;
    const rf::homodyne_tx tx(txc);
    const auto tx_out = timed(rec, "rf.tx", req, acc,
                              [&] { return tx.transmit(stim.stimulus); });
    const auto cal_tx_out = timed(rec, "rf.tx", req, acc, [&] {
        return tx.transmit(stim.calibration);
    });
    if (!same_bits(tx_out.envelope, own.tx_out.envelope) ||
        !same_bits(cal_tx_out.envelope, own.calibration_tx_out.envelope))
        t.stale.insert("rf.tx");

    auto filtered = [&](const rf::tx_output& source, double halfwidth) {
        return timed(rec, "dsp.capture_filter", req, acc, [&] {
            halfwidth = std::min(halfwidth, 0.4 * source.envelope_rate);
            auto bpf = dsp::butterworth_lowpass(
                config.capture_filter_order, halfwidth, source.envelope_rate);
            auto out = bpf.filter(std::span<const std::complex<double>>(
                source.envelope.data(), source.envelope.size()));
            return std::make_shared<rf::envelope_passband>(
                std::move(out), source.envelope_rate, source.carrier_hz);
        });
    };
    const double slow_cover = b1 / 2.0 - std::abs(stim.plan.slow_offset_hz);
    const double narrow = config.capture_filter_halfwidth_hz > 0.0
                              ? config.capture_filter_halfwidth_hz
                              : std::min(0.42 * b1, 0.95 * slow_cover);
    const double fast_cover = b / 2.0 - std::abs(stim.plan.fast_offset_hz);
    const double wide = config.spectrum_filter_halfwidth_hz > 0.0
                            ? config.spectrum_filter_halfwidth_hz
                            : 0.9 * fast_cover;
    const auto capture_input = filtered(cal_tx_out, narrow);
    const auto spectrum_input = filtered(tx_out, wide);

    const double cal_ramp =
        static_cast<double>(stim.calibration.shaper_delay_samples) /
        stim.calibration.sample_rate;
    const double t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : capture_input->begin_time() + cal_ramp + 0.1 * us;
    const std::size_t n = std::max(
        config.fast_samples,
        static_cast<std::size_t>(std::ceil(
            64.0 * b / stim.calibration_config.symbol_rate)));

    adc::bp_tiadc sampler = programmed_sampler(config);
    calib::dual_rate_capture capture{};
    timed(rec, "adc.capture", req, acc, [&] {
        if (config.auto_range)
            sampler.auto_range(*capture_input, t_start, n);
        capture.fast = sampler.capture(*capture_input, t_start, n, 0);
        capture.slow = sampler.capture_divided(
            *capture_input, t_start, n / config.slow_divider,
            config.slow_divider, 1);
        return 0;
    });
    t.adc_samples += capture.fast.even.size() + capture.fast.odd.size() +
                     capture.slow.even.size() + capture.slow.odd.size();
    if (!same_capture(capture.fast, own.capture.fast) ||
        !same_capture(capture.slow, own.capture.slow))
        t.stale.insert("adc.capture");

    capture.band_fast = stim.plan.fast;
    capture.band_slow = stim.plan.slow;
    const double max_delay = timed(rec, "calib.dual_rate", req, acc, [&] {
        (void)calib::dual_rate_conditions_ok(capture);
        return calib::max_search_delay(capture);
    });
    if (!same_bits(max_delay, own.max_search_delay_s))
        t.stale.insert("calib.dual_rate");
}

void replay_calibration(const bist::bist_session& s, span_recorder& rec,
                        std::uint64_t req, replay_totals& t) {
    const auto& config = s.config();
    const auto& cap = s.tx_capture();
    double& acc = t.attributed_ns[2];

    const auto probes = timed(rec, "calib.probes", req, acc, [&] {
        const auto [lo, hi] =
            calib::valid_probe_interval(cap.capture, config.lms.recon);
        rng gen(config.probe_seed);
        return calib::make_probe_times(gen, config.probe_count, lo, hi);
    });
    const double d0 = config.d0_hint_s > 0.0 ? config.d0_hint_s
                                             : 0.5 * cap.max_search_delay_s;
    const calib::lms_skew_estimator estimator(config.lms);
    const auto skew = timed(rec, "calib.lms", req, acc, [&] {
        return estimator.estimate(cap.capture, d0, probes);
    });
    t.lms_cost_evaluations += skew.cost_evaluations;
    t.lms_iterations += skew.iterations;

    bist::calibration_output out;
    out.probe_times = probes;
    out.skew = skew;
    if (campaign::calibration_json(out) !=
        campaign::calibration_json(s.calibration()))
        t.stale.insert("calib.lms");
}

void replay_reconstruction(const bist::bist_session& s, span_recorder& rec,
                           std::uint64_t req, replay_totals& t) {
    const auto& config = s.config();
    const auto& stim = s.stimulus();
    const auto& cap = s.tx_capture();
    const auto& cal = s.calibration();
    const auto& own = s.reconstruction();
    double& acc = t.attributed_ns[3];
    const double b = config.tiadc.channel_rate_hz;

    const double ramp =
        static_cast<double>(stim.stimulus.shaper_delay_samples) /
        stim.stimulus.sample_rate;
    const double t_start =
        config.capture_start_s > 0.0
            ? config.capture_start_s
            : cap.spectrum_input->begin_time() + ramp + 0.1 * us;
    const std::size_t n = std::max(
        config.fast_samples,
        static_cast<std::size_t>(
            std::ceil(80.0 * b / config.preset.stimulus.symbol_rate)));

    adc::bp_tiadc sampler = programmed_sampler(config);
    const auto capture = timed(rec, "adc.capture", req, acc, [&] {
        if (config.auto_range)
            sampler.auto_range(*cap.spectrum_input, t_start, n);
        return sampler.capture(*cap.spectrum_input, t_start, n, 2);
    });
    t.adc_samples += capture.even.size() + capture.odd.size();
    if (!same_capture(capture, own.spectrum_capture))
        t.stale.insert("adc.capture");

    const auto recon = timed(rec, "sampling.pnbs_setup", req, acc, [&] {
        return std::make_unique<sampling::pnbs_reconstructor>(
            capture.even, capture.odd, capture.period_s, capture.t_start,
            cap.capture.band_fast, cal.skew.d_hat, config.lms.recon);
    });

    // The spectrum options run_reconstruction derives, then the body of
    // bist::reconstruct_envelope with the dense grid and the DDC apart.
    bist::spectrum_options opt = config.spectrum;
    if (opt.mix_frequency <= 0.0)
        opt.mix_frequency = stim.carrier_hz;
    if (opt.ddc_cutoff_hz <= 0.0) {
        const double shift =
            std::abs(opt.mix_frequency - cap.capture.band_fast.centre());
        opt.ddc_cutoff_hz = std::min(0.55 * b + shift,
                                     4.6 * stim.occupied_bw_graded_hz + shift);
    }
    if (opt.envelope_rate_min <= 0.0)
        opt.envelope_rate_min = 2.4 * opt.ddc_cutoff_hz;

    const auto& band = recon->kernel().band();
    const double t_lo = recon->valid_begin();
    const double dense_rate = opt.dense_rate_factor * 2.0 * band.f_hi;
    const auto n_dense = static_cast<std::size_t>(
        std::floor((recon->valid_end() - t_lo) * dense_rate));
    const auto x = timed(rec, "sampling.pnbs_dense", req, acc, [&] {
        return recon->uniform(t_lo, dense_rate, n_dense);
    });
    t.pnbs_points += n_dense;

    const auto decim = static_cast<std::size_t>(
        std::max(1.0, std::floor(dense_rate / opt.envelope_rate_min)));
    dsp::ddc_options ddc;
    ddc.carrier_hz = opt.mix_frequency;
    ddc.sample_rate = dense_rate;
    ddc.decimation = decim;
    ddc.fir_taps = opt.ddc_taps;
    ddc.cutoff_hz = opt.ddc_cutoff_hz;
    auto envelope = timed(rec, "dsp.ddc", req, acc, [&] {
        return dsp::digital_downconvert(x, ddc);
    });
    t.ddc_input_samples += x.size();
    t.ddc_decimation += decim;

    timed(rec, "bist.envelope_rotate", req, acc, [&] {
        const auto rot = std::polar(1.0, -two_pi * opt.mix_frequency * t_lo);
        for (auto& v : envelope)
            v *= rot;
        return 0;
    });
    if (!same_bits(envelope, own.envelope.samples) ||
        !same_bits(t_lo, own.envelope.t0)) {
        t.stale.insert("sampling.pnbs_dense");
        t.stale.insert("dsp.ddc");
    }
}

void replay_grading(const bist::bist_session& s, span_recorder& rec,
                    std::uint64_t req, replay_totals& t) {
    const auto& config = s.config();
    const auto& stim = s.stimulus();
    const auto& recon = s.reconstruction();
    double& acc = t.attributed_ns[4];
    const double occ = stim.occupied_bw_graded_hz;

    bist::grading_output out;
    const std::size_t segment =
        config.spectrum.welch_segment > 0
            ? config.spectrum.welch_segment
            : bist::auto_welch_segment(recon.envelope.rate, occ,
                                       recon.envelope.samples.size());
    const auto psd = timed(rec, "dsp.welch", req, acc, [&] {
        return bist::envelope_psd(recon.envelope, segment);
    });
    timed(rec, "waveform.mask", req, acc, [&] {
        out.mask = config.preset.mask.check(psd);
        const double offset = config.acpr_offset_hz > 0.0
                                  ? config.acpr_offset_hz
                              : config.preset.acpr_offset_hz > 0.0
                                  ? config.preset.acpr_offset_hz
                                  : 1.5 * occ;
        out.acpr = waveform::measure_acpr(psd, occ, offset);
        out.acpr_limit_dbc = config.acpr_limit_dbc;
        out.acpr_pass = config.acpr_limit_dbc >= 0.0 ||
                        out.acpr.worst_dbc() <= config.acpr_limit_dbc;
        out.occupied_bw_hz = waveform::occupied_bandwidth(psd, 0.99);
        return 0;
    });
    timed(rec, "waveform.evm", req, acc, [&] {
        waveform::evm_options evm_opt;
        evm_opt.envelope_t0 = recon.envelope.t0;
        out.evm = waveform::measure_evm(
            std::span<const std::complex<double>>(
                recon.envelope.samples.data(), recon.envelope.samples.size()),
            recon.envelope.rate, stim.stimulus, evm_opt);
        out.evm_pass = out.evm.evm_percent() <= config.evm_limit_percent;
        return 0;
    });
    timed(rec, "waveform.power", req, acc, [&] {
        const double scale =
            config.auto_range ? recon.spectrum_ranging.input_scale : 1.0;
        out.measured_output_rms = rms(recon.spectrum_capture.even) / scale;
        out.min_output_rms = config.min_output_rms;
        out.power_pass = config.min_output_rms <= 0.0 ||
                         out.measured_output_rms >= config.min_output_rms;
        return 0;
    });
    if (campaign::grading_json(out) != campaign::grading_json(s.grading())) {
        t.stale.insert("dsp.welch");
        t.stale.insert("waveform.mask");
        t.stale.insert("waveform.evm");
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// Decode a stage payload's JSON into its typed output (the store's last
/// load step); returns a size so the call cannot be optimised away.
std::size_t decode_stage(bist::stage s, const campaign::json_value& v) {
    switch (s) {
    case bist::stage::stimulus:
        return campaign::stimulus_from_json(v).stimulus.samples.size();
    case bist::stage::tx_capture:
        return campaign::tx_capture_from_json(v).capture.fast.even.size();
    case bist::stage::calibration:
        return campaign::calibration_from_json(v).probe_times.size();
    case bist::stage::reconstruction:
        return campaign::reconstruction_from_json(v).envelope.samples.size();
    case bist::stage::grading:
        return campaign::grading_from_json(v).mask.pass ? 1 : 0;
    }
    return 0;
}

bool load_stage(campaign::stage_artefact_store& store, bist::stage s,
                std::uint64_t digest) {
    switch (s) {
    case bist::stage::stimulus: return store.load_stimulus(digest) != nullptr;
    case bist::stage::tx_capture:
        return store.load_tx_capture(digest) != nullptr;
    case bist::stage::calibration:
        return store.load_calibration(digest) != nullptr;
    case bist::stage::reconstruction:
        return store.load_reconstruction(digest) != nullptr;
    case bist::stage::grading: return store.load_grading(digest) != nullptr;
    }
    return false;
}

} // namespace

std::unique_ptr<bist::bist_session>
run_staged(const bist::bist_config& config, span_recorder& rec,
           std::uint64_t request, replay_totals& totals) {
    auto session = std::make_unique<bist::bist_session>(config);
    static constexpr std::array<const char*, stage_count> names = {
        "bist.stimulus", "bist.tx_capture", "bist.calibration",
        "bist.reconstruction", "bist.grading"};
    for (const bist::stage s : bist::stage_order) {
        const auto i = static_cast<std::size_t>(bist::stage_index(s));
        const auto span = rec.span(names[i], request);
        const auto t0 = steady::now();
        const bool ok = session->run_until(s);
        totals.stage_ns[i] += ns_since(t0);
        if (!ok)
            break;
    }
    ++totals.scenarios;
    return session;
}

void replay_substages(const bist::bist_session& session, span_recorder& rec,
                      std::uint64_t request, replay_totals& totals) {
    const auto span = rec.span("replay", request);
    if (session.completed(bist::stage::stimulus))
        replay_stimulus(session, rec, request, totals);
    if (session.completed(bist::stage::tx_capture))
        replay_tx_capture(session, rec, request, totals);
    if (session.completed(bist::stage::calibration))
        replay_calibration(session, rec, request, totals);
    if (session.completed(bist::stage::reconstruction))
        replay_reconstruction(session, rec, request, totals);
    if (session.completed(bist::stage::grading))
        replay_grading(session, rec, request, totals);
}

persistence_totals measure_persistence(const std::vector<persisted_row>& rows,
                                       const std::string& primed_store,
                                       const std::string& scratch_dir,
                                       const std::string& journal_identity,
                                       span_recorder& rec) {
    persistence_totals t;
    fs::remove_all(scratch_dir);
    fs::create_directories(scratch_dir);

    // Publish: stage outputs into a fresh store.
    campaign::stage_artefact_store fresh(scratch_dir + "/store");
    for (const auto& row : rows)
        for (const bist::stage s : bist::stage_order) {
            if (!row.session->completed(s))
                continue;
            timed(rec, "artefact_store.store", 0, t.store_ns, [&] {
                row.session->publish_to_store(fresh, s);
                return 0;
            });
            ++t.stores;
        }

    // Load through the store, then the same entries split by codec step.
    campaign::stage_artefact_store loader(
        primed_store.empty() ? fresh.dir() : primed_store);
    static constexpr std::array<const char*, stage_count> load_names = {
        "artefact_store.load.stimulus", "artefact_store.load.tx_capture",
        "artefact_store.load.calibration",
        "artefact_store.load.reconstruction", "artefact_store.load.grading"};
    for (const auto& row : rows)
        for (const bist::stage s : bist::stage_order) {
            if (!row.session->completed(s))
                continue;
            const auto i = static_cast<std::size_t>(bist::stage_index(s));
            const std::uint64_t digest = row.session->input_digest(s);
            double load_ns = 0.0;
            const bool hit = timed(rec, load_names[i], 0, load_ns, [&] {
                return load_stage(loader, s, digest);
            });
            if (!hit)
                continue; // a miss times a file lookup, not a load
            t.load_ns[i] += load_ns;
            ++t.loads[i];

            const std::string entry = read_file(loader.path_for(digest, s));
            const auto newline = entry.find('\n');
            const auto header = campaign::parse_json(entry.substr(0, newline));
            const auto raw_size =
                static_cast<std::size_t>(header.at("raw_bytes").as_number());
            const std::string_view payload =
                std::string_view(entry).substr(newline + 1);
            const std::string raw =
                timed(rec, "byte_codec.decompress", 0, t.decompress_ns, [&] {
                    return campaign::byte_codec_decompress(payload, raw_size);
                });
            const auto doc = timed(rec, "export.parse_json", 0, t.parse_ns,
                                   [&] { return campaign::parse_json(raw); });
            timed(rec, "stage_codec.decode", 0, t.decode_ns,
                  [&] { return decode_stage(s, doc); });
            t.raw_bytes += raw.size();
            ++t.decodes;
        }
    t.load_misses = loader.misses();

    // Scenario cache and journal, one report per row.
    const campaign::scenario_cache cache(scratch_dir + "/cache");
    campaign::campaign_journal journal(scratch_dir + "/journal.jsonl",
                                       journal_identity, false);
    for (const auto& row : rows) {
        campaign::scenario_result r;
        r.sc = row.sc;
        r.report = row.session->report();
        const std::string key =
            campaign::scenario_cache::key(row.sc, row.session->config());
        timed(rec, "campaign.cache.store", 0, t.cache_store_ns, [&] {
            cache.store(key, r);
            return 0;
        });
        timed(rec, "campaign.cache.load", 0, t.cache_load_ns,
              [&] { return cache.load(key).has_value(); });
        ++t.cache_ops;
        timed(rec, "journal.append", 0, t.journal_ns,
              [&] { return journal.append(key, r); });
        ++t.journal_appends;
    }
    return t;
}

} // namespace bench
