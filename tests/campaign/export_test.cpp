// Structured export: deterministic JSON/CSV/JSONL, round-trips through
// the bundled parsers, measured-field suppression audit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/contracts.hpp"

namespace {

using namespace sdrbist;
using namespace sdrbist::campaign;

const campaign_result& tiny_campaign_result() {
    static const campaign_result result = [] {
        campaign_config cfg;
        cfg.base.tiadc.quant.full_scale = 2.0;
        cfg.base.min_output_rms = 1.2;
        cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
        cfg.faults = {bist::fault_kind::none,
                      bist::fault_kind::pa_gain_drop};
        cfg.trials = 1;
        cfg.threads = 2;
        cfg.seed = 0xE59027ull;
        return campaign_runner(cfg).run();
    }();
    return result;
}

// ---- JSON -------------------------------------------------------------------

TEST(CampaignExport, JsonRoundTripsThroughParser) {
    const auto& result = tiny_campaign_result();
    const auto doc = parse_json(to_json(result));

    const auto& campaign = doc.at("campaign");
    ASSERT_EQ(campaign.at("presets").size(), 1u);
    EXPECT_EQ(campaign.at("presets").at(std::size_t{0}).as_string(),
              "paper-qpsk-10M");
    ASSERT_EQ(campaign.at("faults").size(), 2u);
    EXPECT_EQ(campaign.at("faults").at(std::size_t{1}).as_string(),
              "pa-gain-drop");
    EXPECT_DOUBLE_EQ(campaign.at("trials").as_number(), 1.0);
    EXPECT_EQ(campaign.at("seed").as_string(), std::to_string(result.seed));

    const auto& summary = doc.at("summary");
    EXPECT_DOUBLE_EQ(summary.at("scenarios").as_number(),
                     static_cast<double>(result.scenario_count()));
    EXPECT_DOUBLE_EQ(summary.at("yield").as_number(), result.yield());
    EXPECT_DOUBLE_EQ(summary.at("coverage").as_number(), result.coverage());
    EXPECT_DOUBLE_EQ(summary.at("wall_seconds").as_number(), result.wall_s);

    const auto& matrix = doc.at("coverage_matrix");
    ASSERT_EQ(matrix.size(), 2u);
    EXPECT_EQ(matrix.at(std::size_t{0}).at("fault").as_string(), "none");
    EXPECT_DOUBLE_EQ(matrix.at(std::size_t{0}).at("fail_rate").as_number(),
                     result.cell(0, 0).fail_rate());
    EXPECT_DOUBLE_EQ(matrix.at(std::size_t{1}).at("flagged").as_number(),
                     static_cast<double>(result.cell(0, 1).flagged));

    const auto& rows = doc.at("scenarios");
    ASSERT_EQ(rows.size(), result.results.size());
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const auto& row = rows.at(i);
        const auto& r = result.results[i];
        EXPECT_DOUBLE_EQ(row.at("index").as_number(),
                         static_cast<double>(r.sc.index));
        EXPECT_EQ(row.at("seed").as_string(), std::to_string(r.sc.seed));
        EXPECT_EQ(row.at("pass").as_bool(), !r.flagged());
        // Shortest round-trip formatting: exact double recovery.
        EXPECT_DOUBLE_EQ(row.at("skew_estimate_s").as_number(),
                         r.report.skew.d_hat);
        EXPECT_DOUBLE_EQ(row.at("evm_percent").as_number(),
                         r.report.evm.evm_percent());
        EXPECT_DOUBLE_EQ(row.at("mask_worst_margin_db").as_number(),
                         r.report.mask.worst_margin_db);
    }
}

/// Recursively assert that no key from `forbidden` appears anywhere in a
/// parsed JSON document (objects at any nesting depth).
void expect_no_keys(const json_value& v,
                    const std::vector<std::string>& forbidden) {
    if (v.is_object()) {
        for (const auto& [key, child] : v.as_object()) {
            for (const auto& f : forbidden)
                EXPECT_NE(key, f) << "measured field leaked: " << f;
            expect_no_keys(child, forbidden);
        }
    } else if (v.is_array()) {
        for (const auto& child : v.as_array())
            expect_no_keys(child, forbidden);
    }
}

TEST(CampaignExport, SuppressedExportsContainNoMeasuredFieldAnywhere) {
    // Regression for the include_timing=false audit: *every* measured
    // field — wall/elapsed timing, thread count, cache counters — must be
    // absent from every exporter, at any nesting depth.  The golden tests
    // depend on this: one leaked measured field breaks byte-identity.
    const std::vector<std::string> measured = {
        "elapsed_s",        "wall_seconds", "scenario_cpu_seconds",
        "scenarios_per_second", "threads",  "cache_hits",
        "cache_misses"};
    const auto& result = tiny_campaign_result();
    export_options opt;
    opt.include_timing = false;

    expect_no_keys(parse_json(to_json(result, opt)), measured);

    std::istringstream jsonl(scenarios_jsonl(result, opt));
    std::string row;
    while (std::getline(jsonl, row))
        expect_no_keys(parse_json(row), measured);

    const auto csv = parse_csv(scenarios_csv(result, opt));
    ASSERT_FALSE(csv.empty());
    for (const auto& cell : csv[0])
        EXPECT_EQ(cell.find("elapsed"), std::string::npos);
    // Row width matches the suppressed header (no dangling timing column).
    for (const auto& row : csv)
        EXPECT_EQ(row.size(), csv[0].size());
}

TEST(CampaignExport, MeasuredFieldsPresentWhenRequested) {
    // The default export keeps the full diagnostics, including the cache
    // counters introduced with the result cache.
    const auto& result = tiny_campaign_result();
    const auto doc = parse_json(to_json(result));
    const auto& summary = doc.at("summary").as_object();
    EXPECT_EQ(summary.count("wall_seconds"), 1u);
    EXPECT_EQ(summary.count("cache_hits"), 1u);
    EXPECT_EQ(summary.count("cache_misses"), 1u);
    EXPECT_DOUBLE_EQ(summary.at("cache_hits").as_number(), 0.0);
    EXPECT_EQ(doc.at("campaign").as_object().count("threads"), 1u);
    const auto& row = doc.at("scenarios").at(std::size_t{0}).as_object();
    EXPECT_EQ(row.count("elapsed_s"), 1u);
}

TEST(CampaignExport, JsonlMatchesJsonScenarioRows) {
    // One JSONL line per scenario, each byte-identical to the object in
    // the JSON document's scenarios array.
    const auto& result = tiny_campaign_result();
    export_options opt;
    opt.include_timing = false;
    const std::string jsonl = scenarios_jsonl(result, opt);
    std::istringstream rows(jsonl);
    std::string row;
    std::size_t i = 0;
    while (std::getline(rows, row)) {
        ASSERT_LT(i, result.results.size());
        EXPECT_EQ(row, scenario_json(result.results[i], opt));
        ++i;
    }
    EXPECT_EQ(i, result.results.size());
}

TEST(CampaignExport, TimingFieldsCanBeSuppressed) {
    const auto& result = tiny_campaign_result();
    export_options opt;
    opt.include_timing = false;
    const auto doc = parse_json(to_json(result, opt));
    const auto& summary = doc.at("summary").as_object();
    EXPECT_EQ(summary.count("wall_seconds"), 0u);
    EXPECT_EQ(summary.count("scenarios_per_second"), 0u);
    const auto& row = doc.at("scenarios").at(std::size_t{0}).as_object();
    EXPECT_EQ(row.count("elapsed_s"), 0u);
    // Scenario rows can be dropped entirely for compact artefacts.
    opt.include_scenarios = false;
    const auto compact = parse_json(to_json(result, opt));
    EXPECT_EQ(compact.as_object().count("scenarios"), 0u);
}

TEST(CampaignExport, TimingFreeJsonIsDeterministic) {
    // Two executions of the same campaign config must export byte-identical
    // timing-free artefacts (the timing fields are the only measured data).
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    const auto a = campaign_runner(cfg).run();
    const auto b = campaign_runner(cfg).run();
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(to_json(a, opt), to_json(b, opt));
    EXPECT_EQ(coverage_csv(a), coverage_csv(b));
    EXPECT_EQ(scenarios_csv(a, opt), scenarios_csv(b, opt));
}

// ---- CSV --------------------------------------------------------------------

TEST(CampaignExport, CoverageCsvRoundTrips) {
    const auto& result = tiny_campaign_result();
    const auto rows = parse_csv(coverage_csv(result));
    ASSERT_EQ(rows.size(), 1u + 2u); // header + 1 preset x 2 faults
    const std::vector<std::string> header = {"preset", "fault", "runs",
                                             "flagged", "fail_rate"};
    EXPECT_EQ(rows[0], header);
    EXPECT_EQ(rows[1][0], "paper-qpsk-10M");
    EXPECT_EQ(rows[1][1], "none");
    EXPECT_EQ(rows[1][2], "1");
    EXPECT_EQ(rows[1][3], std::to_string(result.cell(0, 0).flagged));
    EXPECT_EQ(rows[2][1], "pa-gain-drop");
    EXPECT_DOUBLE_EQ(std::stod(rows[2][4]), result.cell(0, 1).fail_rate());
}

TEST(CampaignExport, ScenariosCsvRoundTrips) {
    const auto& result = tiny_campaign_result();
    const auto rows = parse_csv(scenarios_csv(result));
    ASSERT_EQ(rows.size(), 1u + result.results.size());
    ASSERT_EQ(rows[0].size(), 13u); // includes elapsed_s/attempts by default
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const auto& cells = rows[i + 1];
        EXPECT_EQ(cells[0], std::to_string(i));
        EXPECT_EQ(cells[4], std::to_string(result.results[i].sc.seed));
        EXPECT_EQ(cells[5], result.results[i].flagged() ? "0" : "1");
        EXPECT_DOUBLE_EQ(std::stod(cells[9]),
                         result.results[i].report.skew.d_hat);
    }
}

TEST(CampaignExport, CoverageTableRendersGrid) {
    const auto& result = tiny_campaign_result();
    const auto table = coverage_table(result);
    EXPECT_EQ(table.columns(), 1u + result.fault_names.size());
    EXPECT_EQ(table.rows(), result.preset_names.size());
}

// ---- parser hardening -------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndNesting) {
    const auto doc = parse_json(
        R"({"a": [1, -2.5e3, true, false, null], "s": "x\"\\\nA"})");
    EXPECT_DOUBLE_EQ(doc.at("a").at(std::size_t{0}).as_number(), 1.0);
    EXPECT_DOUBLE_EQ(doc.at("a").at(std::size_t{1}).as_number(), -2500.0);
    EXPECT_TRUE(doc.at("a").at(std::size_t{2}).as_bool());
    EXPECT_FALSE(doc.at("a").at(std::size_t{3}).as_bool());
    EXPECT_TRUE(doc.at("a").at(std::size_t{4}).is_null());
    EXPECT_EQ(doc.at("s").as_string(), "x\"\\\nA");
}

TEST(JsonParser, RejectsMalformedInput) {
    EXPECT_THROW(parse_json("{"), contract_violation);
    EXPECT_THROW(parse_json("[1,]"), contract_violation);
    EXPECT_THROW(parse_json("{\"a\" 1}"), contract_violation);
    EXPECT_THROW(parse_json("\"unterminated"), contract_violation);
    EXPECT_THROW(parse_json("12 34"), contract_violation);
    EXPECT_THROW(parse_json("nope"), contract_violation);
}

TEST(JsonParser, DeepNestingIsRejectedNotAStackOverflow) {
    // Hostile input: a 1 MB frame of '[' used to recurse once per byte.
    EXPECT_THROW(parse_json(std::string(1u << 20, '[')), contract_violation);
    EXPECT_THROW(parse_json(std::string(1u << 20, '{')), contract_violation);
    // Well-formed nesting at the cap still parses; one level more does not.
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(parse_json(nested(json_max_depth)));
    EXPECT_THROW(parse_json(nested(json_max_depth + 1)), contract_violation);
}

TEST(JsonValue, CheckedNumberAccessorsAcceptOnlyTheirRange) {
    const auto num = [](const char* text) { return parse_json(text); };

    EXPECT_TRUE(std::isnan(num("null").as_number_or_nan()));
    EXPECT_EQ(num("-2.5").as_number_or_nan(), -2.5);
    EXPECT_THROW(static_cast<void>(num("\"1\"").as_number_or_nan()),
                 contract_violation);

    EXPECT_EQ(num("0").as_size(), 0u);
    EXPECT_EQ(num("-0").as_size(), 0u);
    EXPECT_EQ(num("9007199254740992").as_size(), std::size_t{1} << 53);
    for (const char* bad : {"-1", "0.5", "1e300", "9007199254740994",
                            "null", "\"7\"", "true"})
        EXPECT_THROW(static_cast<void>(num(bad).as_size()),
                     contract_violation)
            << bad;

    EXPECT_EQ(num("\"0\"").as_u64(), 0u);
    EXPECT_EQ(num("\"18446744073709551615\"").as_u64(),
              std::numeric_limits<std::uint64_t>::max());
    for (const char* bad : {R"("")", R"("-1")", R"("+1")", R"("12abc")",
                            R"(" 42")", R"("42 ")", R"("18446744073709551616")",
                            R"("1e3")", "42"})
        EXPECT_THROW(static_cast<void>(num(bad).as_u64()), contract_violation)
            << bad;
}

TEST(CsvParser, HandlesQuotingAndEmptyCells) {
    const auto rows = parse_csv("a,\"b,1\",\"say \"\"hi\"\"\"\nc,,d\n");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,1", "say \"hi\""}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "", "d"}));
}

} // namespace
