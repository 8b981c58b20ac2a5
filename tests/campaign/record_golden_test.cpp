// Golden record fixtures: the committed files under tests/campaign/golden/
// records/ pin the bytes of every persisted record — the five stage
// records and the scenario report (artefact store payloads), the
// scenario-cache record, a scenario row, a shard file with a telemetry
// block, and a journal header with one scenario line.  For each fixture:
//   1. encoding the small value of tests/support/record_values.hpp gives
//      the fixture byte for byte;
//   2. decoding the fixture and encoding the result gives it again.
// A record whose bytes move without a format-version bump (store, shard
// file or journal) fails here: stale entries and files of the old layout
// would otherwise be read by the new decoder.
//
// RecordMembers then deletes each object member of each fixture, at any
// depth, and checks that the record no longer decodes: every member is
// required, so a record with one missing never reads as a default.
//
// Regenerate after an intentional format change (and its version bump):
//   SDRBIST_REGEN_GOLDEN=1 ./test_campaign --gtest_filter='GoldenRecords*'
// and commit the resulting fixture diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/artefact_store/artefact_store.hpp"
#include "campaign/artefact_store/byte_codec.hpp"
#include "campaign/artefact_store/stage_codec.hpp"
#include "campaign/cache.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/hash.hpp"
#include "core/telemetry.hpp"
#include "support/record_values.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using namespace sdrbist::testing;

const fs::path records_dir = fs::path(SDRBIST_TEST_DIR) / "golden" / "records";

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spit(const fs::path& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The fixture's bytes, or the regenerated fixture under
/// SDRBIST_REGEN_GOLDEN (then `encoded` is written and returned).
std::string fixture(const std::string& name, const std::string& encoded) {
    const fs::path path = records_dir / name;
    if (std::getenv("SDRBIST_REGEN_GOLDEN") != nullptr) {
        fs::create_directories(records_dir);
        spit(path, encoded);
    }
    EXPECT_TRUE(fs::exists(path))
        << "missing fixture " << path
        << " (regenerate with SDRBIST_REGEN_GOLDEN=1)";
    return slurp(path);
}

/// Both checks for a record whose codec maps a parsed JSON value.
void check_record(const std::string& name, const std::string& encoded,
                  const std::function<std::string(const json_value&)>&
                      decode_and_encode) {
    const std::string golden = fixture(name, encoded);
    EXPECT_EQ(encoded, golden)
        << "the encoding drifted from " << name
        << " — a layout change bumps its format version; regenerate with "
           "SDRBIST_REGEN_GOLDEN=1 and review the fixture diff";
    EXPECT_EQ(decode_and_encode(parse_json(golden)), golden)
        << name << " does not survive decode + encode";
}

constexpr std::uint64_t record_digest = 0xAA;

/// The raw (decompressed) record of a store entry file.
std::string entry_record(const std::string& path) {
    const std::string file = slurp(path);
    const std::size_t nl = file.find('\n');
    const json_value header = parse_json(file.substr(0, nl));
    return byte_codec_decompress(file.substr(nl + 1),
                                 header.at("raw_bytes").as_size());
}

campaign_result shard_value() {
    campaign_result r = small_result(2);
    r.results[1].engine_error = true;
    r.results[1].error = "precondition violated: \"quoted\"\n";
    r.shard_index = 1;
    r.shard_count = 3;
    r.wall_s = 0.5;
    r.cache_hits = 4;
    r.cache_misses = 5;
    r.stage_reuse_hits = 6;
    r.stage_reuse_computes = 7;
    r.store_hits = 8;
    r.store_misses = 9;
    r.store_bytes = 1024;
    r.resumed = 1;
    r.quarantined = 2;
    auto& scenario = r.telemetry_summary.categories[static_cast<std::size_t>(
        telemetry::category::scenario)];
    scenario.count = 2;
    scenario.total_ns = 0x1000000000000001ull; // beyond a double's 53 bits
    scenario.max_ns = 123456789;
    return r;
}

TEST(GoldenRecords, Stimulus) {
    check_record("stimulus.json", stimulus_json(small_stage_outputs().stimulus),
                 [](const json_value& v) {
                     return stimulus_json(stimulus_from_json(v));
                 });
}

TEST(GoldenRecords, TxCapture) {
    check_record("tx_capture.json",
                 tx_capture_json(small_stage_outputs().tx_capture),
                 [](const json_value& v) {
                     return tx_capture_json(tx_capture_from_json(v));
                 });
}

TEST(GoldenRecords, Calibration) {
    check_record("calibration.json",
                 calibration_json(small_stage_outputs().calibration),
                 [](const json_value& v) {
                     return calibration_json(calibration_from_json(v));
                 });
}

TEST(GoldenRecords, Reconstruction) {
    check_record("reconstruction.json",
                 reconstruction_json(small_stage_outputs().reconstruction),
                 [](const json_value& v) {
                     return reconstruction_json(reconstruction_from_json(v));
                 });
}

TEST(GoldenRecords, Grading) {
    check_record("grading.json", grading_json(small_stage_outputs().grading),
                 [](const json_value& v) {
                     return grading_json(grading_from_json(v));
                 });
}

TEST(GoldenRecords, Report) {
    check_record("report.json", report_json(small_report()),
                 [](const json_value& v) {
                     return report_json(
                         record_reader::decode<bist::bist_report>(v));
                 });
}

TEST(GoldenRecords, ScenarioRow) {
    check_record("scenario_row.json", scenario_row_json(small_row(3)),
                 [](const json_value& v) {
                     return scenario_row_json(scenario_row_from_json(v));
                 });
}

TEST(GoldenRecords, ShardFileWithTelemetry) {
    check_record("shard.json", result_to_json(shard_value()),
                 [](const json_value& v) {
                     return result_to_json(result_from_json(v));
                 });
}

TEST(GoldenRecords, ScenarioCacheRecord) {
    const scratch_dir dir("golden_scenario_record");
    const std::string key = fnv1a64::hex_digest(record_digest);
    const scenario_cache cache(dir.path.string());
    scenario_result row = small_row(0);
    row.sc.trial = 2;
    row.sc.fault = bist::fault_kind::pa_gain_drop;
    cache.store(key, row);
    const std::string golden =
        fixture("scenario_record.json", entry_record(cache.path_for(key)));
    EXPECT_EQ(entry_record(cache.path_for(key)), golden);

    // Decode the fixture through the cache's own reader, then store what
    // it read.
    entry_store(dir.path.string()).store(key, scenario_record_kind, golden);
    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    cache.store(key, *loaded);
    EXPECT_EQ(entry_record(cache.path_for(key)), golden);
}

TEST(GoldenRecords, JournalHeaderAndScenarioLine) {
    const scratch_dir dir("golden_journal");
    const std::string identity = "0123456789abcdef";
    const std::string key = "00000000000000aa";
    const std::string written = dir.file("written.jsonl");
    {
        campaign_journal journal(written, identity, /*resume=*/false);
        ASSERT_TRUE(journal.append(key, small_row(1)));
    }
    const std::string golden = fixture("journal.jsonl", slurp(written));
    EXPECT_EQ(slurp(written), golden);

    const std::string copy = dir.file("golden.jsonl");
    spit(copy, golden);
    const journal_replay replay = read_journal(copy);
    EXPECT_EQ(replay.torn_lines, 0u);
    ASSERT_EQ(replay.rows.size(), 1u);
    const std::string rewritten = dir.file("rewritten.jsonl");
    {
        campaign_journal journal(rewritten, replay.identity, false);
        ASSERT_TRUE(journal.append(replay.rows[0].key,
                                   replay.rows[0].result));
    }
    EXPECT_EQ(slurp(rewritten), golden);
}

// ---- every member is required ----------------------------------------------

/// Every copy of `v` with exactly one object member removed, at any depth
/// (inside arrays of objects too).
std::vector<json_value> one_member_removed(const json_value& v) {
    std::vector<json_value> out;
    if (v.is_object()) {
        const auto& members = v.as_object();
        for (const auto& [key, member] : members) {
            json_value::object without = members;
            without.erase(key);
            out.emplace_back(std::move(without));
            for (json_value& inner : one_member_removed(member)) {
                json_value::object with = members;
                with[key] = std::move(inner);
                out.emplace_back(std::move(with));
            }
        }
    } else if (v.is_array()) {
        const auto& elements = v.as_array();
        for (std::size_t i = 0; i < elements.size(); ++i)
            for (json_value& inner : one_member_removed(elements[i])) {
                json_value::array with = elements;
                with[i] = std::move(inner);
                out.emplace_back(std::move(with));
            }
    }
    return out;
}

/// JSON text of a parsed document, for the decoders that read text.
std::string to_text(const json_value& v) {
    if (v.is_null())
        return "null";
    if (v.is_bool())
        return v.as_bool() ? "true" : "false";
    if (v.is_number())
        return json_number(v.as_number());
    if (v.is_string())
        return json_quote(v.as_string());
    std::string out;
    if (v.is_array()) {
        for (const json_value& e : v.as_array())
            out += (out.empty() ? "" : ",") + to_text(e);
        return "[" + out + "]";
    }
    for (const auto& [key, member] : v.as_object())
        out += (out.empty() ? "" : ",") + json_quote(key) + ":" +
               to_text(member);
    return "{" + out + "}";
}

/// Decoding the fixture succeeds; decoding it with any one member removed
/// throws contract_violation.
void expect_every_member_required(
    const std::string& name,
    const std::function<void(const json_value&)>& decode) {
    const json_value golden = parse_json(slurp(records_dir / name));
    ASSERT_NO_THROW(decode(golden)) << name;
    const auto variants = one_member_removed(golden);
    ASSERT_FALSE(variants.empty()) << name;
    for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_THROW(decode(variants[i]), contract_violation)
            << name << " decoded with a member missing: "
            << to_text(variants[i]).substr(0, 200);
}

TEST(RecordMembers, StageRecordsAndReport) {
    expect_every_member_required("stimulus.json", [](const json_value& v) {
        (void)stimulus_from_json(v);
    });
    expect_every_member_required("tx_capture.json", [](const json_value& v) {
        (void)tx_capture_from_json(v);
    });
    expect_every_member_required("calibration.json", [](const json_value& v) {
        (void)calibration_from_json(v);
    });
    expect_every_member_required(
        "reconstruction.json",
        [](const json_value& v) { (void)reconstruction_from_json(v); });
    expect_every_member_required("grading.json", [](const json_value& v) {
        (void)grading_from_json(v);
    });
    expect_every_member_required("report.json", [](const json_value& v) {
        (void)record_reader::decode<bist::bist_report>(v);
    });
}

TEST(RecordMembers, ScenarioRowAndShardFile) {
    expect_every_member_required("scenario_row.json", [](const json_value& v) {
        (void)scenario_row_from_json(v);
    });
    expect_every_member_required("shard.json", [](const json_value& v) {
        (void)result_from_json(v);
    });
}

TEST(RecordMembers, ScenarioCacheRecordMissesAndQuarantines) {
    // The cache reads the record inside entry_store::load, which turns a
    // decode failure into a miss and moves the entry to quarantine/.
    const scratch_dir dir("members_scenario_record");
    const std::string key = fnv1a64::hex_digest(record_digest);
    const entry_store entries(dir.path.string());
    const scenario_cache cache(dir.path.string());
    expect_every_member_required(
        "scenario_record.json", [&](const json_value& v) {
            entries.store(key, scenario_record_kind, to_text(v));
            const std::size_t before = cache.quarantined();
            if (!cache.load(key).has_value()) {
                EXPECT_EQ(cache.quarantined(), before + 1);
                throw contract_violation("scenario record did not decode");
            }
        });
}

TEST(RecordMembers, JournalHeaderThrowsAndScenarioLineTears) {
    const scratch_dir dir("members_journal");
    const std::string golden = slurp(records_dir / "journal.jsonl");
    const std::size_t nl = golden.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string header = golden.substr(0, nl + 1);
    const std::string line = golden.substr(nl + 1);
    const std::string path = dir.file("run.jsonl");

    // A header with a member missing fails the whole read.
    for (const json_value& v : one_member_removed(parse_json(header))) {
        spit(path, to_text(v) + "\n" + line);
        EXPECT_THROW((void)read_journal(path), contract_violation)
            << to_text(v);
    }
    // A scenario line with a member missing is untrusted: it is dropped
    // as torn, and a resuming writer truncates it away.
    for (const json_value& v : one_member_removed(parse_json(line))) {
        spit(path, header + to_text(v) + "\n");
        const journal_replay replay = read_journal(path);
        EXPECT_TRUE(replay.rows.empty()) << to_text(v).substr(0, 200);
        EXPECT_EQ(replay.torn_lines, 1u);
        EXPECT_EQ(replay.valid_bytes, header.size());
    }
}

} // namespace
