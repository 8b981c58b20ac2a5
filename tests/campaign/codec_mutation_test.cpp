// Seeded mutation suite over every decoder of bytes from disk or the wire:
// service frames (parse + the coordinator's decode, live over loopback),
// journal lines, shard files (strict and salvage), store entries of all
// six record kinds and byte_codec payloads.  Valid encodings get
// deterministic bit flips, truncations, splices and byte or number
// replacements; every mutant must decode, throw contract_violation /
// transient_fault, or be quarantined — never crash.  Built with
// -fsanitize=address,undefined,float-cast-overflow (the CI sanitize job)
// the suite also shows that no mutant reaches undefined behaviour, such
// as an out-of-range float-to-integer conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#endif

#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/service/worker.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/hash.hpp"
#include "support/record_values.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using namespace sdrbist::testing;

/// Fixed seed: every run replays the same mutants.
constexpr std::uint64_t suite_seed = 0x5EEDC0DEC0FFEEull;
constexpr std::size_t mutants_per_target = 400;

/// Deterministic byte-level mutator.
class mutator {
public:
    explicit mutator(std::uint64_t salt) : rng_(suite_seed ^ salt) {}

    /// One to three stacked edits of `s`; `donor` feeds splices.
    std::string operator()(std::string s, const std::string& donor) {
        const std::size_t edits = 1 + below(3);
        for (std::size_t e = 0; e < edits; ++e)
            edit(s, donor);
        return s;
    }

private:
    std::size_t below(std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
    }

    void edit(std::string& s, const std::string& donor) {
        switch (below(5)) {
        case 0: // flip one bit
            if (!s.empty())
                s[below(s.size())] ^= static_cast<char>(1u << below(8));
            break;
        case 1: // truncate
            s.resize(below(s.size() + 1));
            break;
        case 2: { // splice a donor chunk over a short span
            const std::size_t at = below(s.size() + 1);
            const std::size_t cut =
                below(std::min<std::size_t>(s.size() - at, 64) + 1);
            const std::size_t from = below(donor.size() + 1);
            const std::size_t len =
                below(std::min<std::size_t>(donor.size() - from, 64) + 1);
            s.replace(at, cut, donor, from, len);
            break;
        }
        case 3: { // overwrite a few bytes with structural / extreme ones
            static constexpr char bytes[] = "\"{}[],:-+.059eE \\\0\xff";
            for (std::size_t n = 1 + below(3); n > 0 && !s.empty(); --n)
                s[below(s.size())] = bytes[below(sizeof(bytes) - 1)];
            break;
        }
        default:
            replace_number(s);
        }
    }

    /// Replace one numeric token — digits inside the quoted 64-bit
    /// strings included — with a value outside some decoder's range.
    void replace_number(std::string& s) {
        std::vector<std::pair<std::size_t, std::size_t>> tokens;
        const auto digit = [&](std::size_t i) {
            return i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i]));
        };
        for (std::size_t i = 0; i < s.size();) {
            if (!digit(i) && !(s[i] == '-' && digit(i + 1))) {
                ++i;
                continue;
            }
            std::size_t j = i + 1;
            while (j < s.size() &&
                   (digit(j) || std::string_view(".eE+-").find(s[j]) !=
                                    std::string_view::npos))
                ++j;
            tokens.emplace_back(i, j - i);
            i = j;
        }
        if (tokens.empty())
            return;
        static constexpr const char* extremes[] = {
            "-1",       "0.5",        "1e300",
            "-1e300",   "1e-300",     "-0",
            "0",        "4294967296", "9007199254740993",
            "1e19",     "18446744073709551616",
            "99999999999999999999999", "null", "true",
            "\"12abc\"", "[]",         "{}"};
        const auto [at, len] = tokens[below(tokens.size())];
        s.replace(at, len, extremes[below(std::size(extremes))]);
    }

    std::mt19937_64 rng_;
};

/// Decode outcomes over one target's mutants.
struct tally {
    std::size_t decoded = 0;
    std::size_t rejected = 0;
};

/// Run one decode: a clean return or a taxonomy exception is fine; any
/// other exception fails the test.  Returns true on a clean decode.
bool decode_into(tally& t, std::size_t mutant,
                 const std::function<void()>& decode) {
    try {
        decode();
        ++t.decoded;
        return true;
    } catch (const contract_violation&) {
    } catch (const fault_injection::transient_fault&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << mutant
                      << " escaped the failure taxonomy: " << e.what();
    }
    ++t.rejected;
    return false;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// ---- small valid records ----------------------------------------------------

/// One valid encoding per store record kind, with the direct decoder for
/// the five stage kinds (the scenario kind decodes inside the cache).
struct record_kind {
    std::string kind;
    std::string raw;
    std::function<void(const json_value&)> decode;
};

std::vector<record_kind> stage_records() {
    const small_stage_outputs small;
    const auto& stim = small.stimulus;
    const auto& tx = small.tx_capture;
    const auto& cal = small.calibration;
    const auto& rec = small.reconstruction;
    const auto& grade = small.grading;

    using bist::stage;
    return {
        {bist::to_string(stage::stimulus), stimulus_json(stim),
         [](const json_value& v) { (void)stimulus_from_json(v); }},
        {bist::to_string(stage::tx_capture), tx_capture_json(tx),
         [](const json_value& v) { (void)tx_capture_from_json(v); }},
        {bist::to_string(stage::calibration), calibration_json(cal),
         [](const json_value& v) { (void)calibration_from_json(v); }},
        {bist::to_string(stage::reconstruction), reconstruction_json(rec),
         [](const json_value& v) { (void)reconstruction_from_json(v); }},
        {bist::to_string(stage::grading), grading_json(grade),
         [](const json_value& v) { (void)grading_from_json(v); }},
    };
}

/// Every record of the store tests lives under this key.
constexpr std::uint64_t record_digest = 0xAA;

/// Typed load of the `kind` record through the store's own decoder; true
/// on a hit.
bool typed_load(const std::string& dir, const std::string& kind) {
    const std::uint64_t digest = record_digest;
    if (kind == scenario_record_kind)
        return scenario_cache(dir).load(fnv1a64::hex_digest(digest))
            .has_value();
    stage_artefact_store stages(dir);
    for (const bist::stage s : bist::stage_order) {
        if (bist::to_string(s) != kind)
            continue;
        switch (s) {
        case bist::stage::stimulus:
            return stages.load_stimulus(digest) != nullptr;
        case bist::stage::tx_capture:
            return stages.load_tx_capture(digest) != nullptr;
        case bist::stage::calibration:
            return stages.load_calibration(digest) != nullptr;
        case bist::stage::reconstruction:
            return stages.load_reconstruction(digest) != nullptr;
        case bist::stage::grading:
            return stages.load_grading(digest) != nullptr;
        }
    }
    ADD_FAILURE() << "unknown record kind " << kind;
    return false;
}

std::size_t quarantined_files(const fs::path& dir) {
    const fs::path q = dir / "quarantine";
    if (!fs::is_directory(q))
        return 0;
    return static_cast<std::size_t>(std::distance(fs::directory_iterator(q),
                                                  fs::directory_iterator()));
}

// ---- targets ----------------------------------------------------------------

TEST(CodecMutation, ByteCodecPayloads) {
    const std::string raw = report_json(small_report()) +
                            report_json(small_report());
    const std::string payload = byte_codec_compress(raw);
    ASSERT_EQ(byte_codec_decompress(payload, raw.size()), raw);

    mutator mutate(1);
    tally t;
    for (std::size_t i = 0; i < mutants_per_target; ++i) {
        const std::string bad = mutate(payload, raw);
        decode_into(t, i, [&] {
            (void)byte_codec_decompress(bad, raw.size());
        });
        // A header may also misstate the raw size.
        const std::size_t claimed[] = {0, raw.size() - 1, raw.size() + 1,
                                       byte_codec_max_raw_bytes + 1};
        decode_into(t, i, [&] {
            (void)byte_codec_decompress(payload,
                                        claimed[i % std::size(claimed)]);
        });
    }
    EXPECT_GT(t.rejected, 0u);
}

TEST(CodecMutation, StoreEntriesOfEveryKindDecodeOrQuarantine) {
    const scratch_dir dir("mutation_store");
    const std::string store_dir = dir.path.string();
    const std::string key = fnv1a64::hex_digest(record_digest);
    auto records = stage_records();
    {
        // The scenario kind's raw record, as the cache writes it.
        scenario_cache(store_dir).store(key, small_row(0));
        const std::string file =
            slurp(scenario_cache(store_dir).path_for(key));
        const std::size_t nl = file.find('\n');
        const json_value header = parse_json(file.substr(0, nl));
        records.push_back(
            {std::string(scenario_record_kind),
             byte_codec_decompress(file.substr(nl + 1),
                                   header.at("raw_bytes").as_size()),
             nullptr});
    }
    ASSERT_EQ(records.size(), 6u);

    const entry_store entries(store_dir);
    mutator mutate(2);
    for (std::size_t k = 0; k < records.size(); ++k) {
        const record_kind& rec = records[k];
        SCOPED_TRACE(rec.kind);
        const std::string path = entries.path_for(key, rec.kind);
        const std::string& donor = records[(k + 1) % records.size()].raw;
        entries.store(key, rec.kind, rec.raw);
        ASSERT_TRUE(typed_load(store_dir, rec.kind));
        const std::string valid_file = slurp(path);

        tally raw_tally;
        tally file_tally;
        for (std::size_t i = 0; i < mutants_per_target / 4; ++i) {
            // A mutated record behind a valid header and checksum: the
            // kind's decoder alone decides, and the store agrees with it.
            const std::string bad = mutate(rec.raw, donor);
            bool decodes = true;
            if (rec.decode)
                decodes = decode_into(raw_tally, i,
                                      [&] { rec.decode(parse_json(bad)); });
            entries.store(key, rec.kind, bad);
            const std::size_t before = quarantined_files(dir.path);
            const bool hit = typed_load(store_dir, rec.kind);
            if (rec.decode) {
                EXPECT_EQ(hit, decodes) << "mutant " << i;
            }
            if (!hit) {
                EXPECT_EQ(quarantined_files(dir.path), before + 1)
                    << "mutant " << i << " missed without quarantine";
            }

            // A mutated entry file: header, checksum and payload alike.
            spit(path, mutate(valid_file, donor));
            if (typed_load(store_dir, rec.kind))
                ++file_tally.decoded;
            else
                ++file_tally.rejected;
        }
        EXPECT_GT(file_tally.rejected, 0u);
    }
}

TEST(CodecMutation, JournalLines) {
    const scratch_dir dir("mutation_journal");
    const std::string path = dir.file("run.jsonl");
    {
        campaign_journal journal(path, "0123456789abcdef", /*resume=*/false);
        ASSERT_TRUE(journal.append("00000000000000aa", small_row(0)));
        ASSERT_TRUE(journal.append("00000000000000bb", small_row(1)));
    }
    const std::string valid = slurp(path);
    ASSERT_EQ(read_journal(path).rows.size(), 2u);

    mutator mutate(3);
    tally t;
    for (std::size_t i = 0; i < mutants_per_target; ++i) {
        const std::string bad = mutate(valid, valid);
        spit(path, bad);
        decode_into(t, i, [&] {
            const journal_replay replay = read_journal(path);
            EXPECT_LE(replay.valid_bytes, bad.size());
            EXPECT_LE(replay.rows.size(), 2u);
        });
    }
    EXPECT_GT(t.rejected, 0u);
    EXPECT_GT(t.decoded, 0u);
}

TEST(CodecMutation, ShardFilesStrictAndSalvage) {
    const scratch_dir dir("mutation_shard");
    const std::string valid = result_to_json(small_result(2));
    ASSERT_EQ(result_to_json(result_from_json(parse_json(valid))), valid);

    mutator mutate(4);
    tally strict;
    for (std::size_t i = 0; i < mutants_per_target; ++i) {
        const std::string bad = mutate(valid, valid);
        const bool decodes = decode_into(
            strict, i, [&] { (void)result_from_json(parse_json(bad)); });

        const std::string path =
            dir.file("shard" + std::to_string(i) + ".json");
        spit(path, bad);
        tally file;
        EXPECT_EQ(decode_into(file, i,
                              [&] { (void)read_result_file(path); }),
                  decodes);
        salvage_stats stats;
        const auto salvaged = read_result_files_salvage({path}, stats);
        EXPECT_EQ(salvaged.size(), decodes ? 1u : 0u) << "mutant " << i;
        EXPECT_EQ(stats.quarantined_files, decodes ? 0u : 1u);
        EXPECT_EQ(fs::exists(path), decodes);
    }
    EXPECT_GT(strict.rejected, 0u);
    EXPECT_GT(strict.decoded, 0u);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(CodecMutation, ServiceFramesThroughALiveCoordinator) {
    using namespace sdrbist::campaign::service;
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.seed = 0xF22ull;
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    json_object_writer hello;
    hello.string_field("type", "hello");
    hello.size_field("protocol_version",
                     static_cast<std::size_t>(protocol_version));
    hello.string_field("identity", campaign_identity(cfg));
    const auto lease_frame = [](const char* type, const std::string& result) {
        json_object_writer o;
        o.string_field("type", type);
        o.size_field("lease", 0);
        o.size_field("generation", 1);
        if (!result.empty())
            o.field("result", result);
        return o.str();
    };
    const std::vector<std::string> frames = {
        hello.str(),
        lease_frame("heartbeat", ""),
        lease_frame("complete", result_to_json(small_result(1))),
    };

    mutator mutate(5);
    tally t;
    for (std::size_t i = 0; i < mutants_per_target; ++i) {
        const std::size_t f = i % frames.size();
        const std::string bad =
            mutate(frames[f], frames[(f + 1) % frames.size()]);

        // Offline: the library decoders the coordinator runs per type.
        decode_into(t, i, [&] {
            const json_value msg = parse_json(bad);
            const std::string type = msg.at("type").as_string();
            if (type == "hello") {
                (void)msg.at("protocol_version").as_size();
                return;
            }
            (void)msg.at("lease").as_size();
            (void)msg.at("generation").as_size();
            if (type == "complete")
                (void)result_from_json(msg.at("result"));
        });

        // Live: the coordinator replies or drops this connection alone.
        tcp_socket c = tcp_connect("127.0.0.1", svc.port);
        c.set_recv_timeout(10.0);
        // A frame goes out as two sends (length, payload); without
        // NODELAY each one would wait out the peer's delayed ACK.
        const int one = 1;
        ::setsockopt(c.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (f != 0) {
            send_frame(c, frames[0]);
            ASSERT_EQ(recv_message(c).at("type").as_string(), "welcome");
        }
        send_frame(c, bad);
        try {
            (void)recv_frame(c);
        } catch (const fault_injection::transient_fault&) {
            // dropped by the coordinator's catch
        }
    }
    EXPECT_GT(t.rejected, 0u);

    // The coordinator survived every mutant and still serves the grid.
    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(wr.leases, 1u);
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(report.result, opt), to_json(reference, opt));
}
#endif

} // namespace
