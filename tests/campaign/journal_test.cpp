// Crash-safe campaign journal and --resume: identity digests, the
// append/replay round trip, torn-tail tolerance, and the headline
// property that a resumed run's exports are byte-identical to an
// uninterrupted run's.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
namespace fi = sdrbist::fault_injection;
using sdrbist::testing::scratch_dir;

class CampaignJournal : public ::testing::Test {
protected:
    void SetUp() override { fi::disarm(); }
    void TearDown() override { fi::disarm(); }
};

campaign_config small_campaign() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 2;
    cfg.threads = 2;
    cfg.seed = 0x10A11ull;
    return cfg;
}

std::string timing_free_json(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST_F(CampaignJournal, IdentityCoversShapeNotExecution) {
    const auto base = small_campaign();
    const std::string id = campaign_identity(base);
    EXPECT_EQ(id.size(), 16u);
    EXPECT_EQ(campaign_identity(base), id) << "identity is a pure function";

    // Anything that changes which scenarios exist or what they compute
    // must move the digest...
    auto changed = base;
    changed.seed ^= 1;
    EXPECT_NE(campaign_identity(changed), id);
    changed = base;
    changed.trials += 1;
    EXPECT_NE(campaign_identity(changed), id);
    changed = base;
    changed.faults = {bist::fault_kind::none};
    EXPECT_NE(campaign_identity(changed), id);
    changed = base;
    changed.shard = {0, 2};
    EXPECT_NE(campaign_identity(changed), id);

    // ...while pure execution knobs must not: a resume may legitimately
    // use different threads, cache or retry settings.
    changed = base;
    changed.threads = 7;
    changed.cache_dir = "elsewhere";
    changed.max_retries = 9;
    changed.retry_backoff_ms = 123.0;
    changed.scenario_deadline_s = 5.0;
    changed.journal_path = "other.jsonl";
    EXPECT_EQ(campaign_identity(changed), id);
}

TEST_F(CampaignJournal, IdentityIsPinned) {
    // Journals written by earlier builds must keep resuming: a change to
    // the identity text (a field added, dropped or renamed) moves this
    // literal and needs a journal_format_version bump instead.  The one
    // deliberate mover is canonical_config_version, which the identity
    // hashes through the base configuration's canonical text: a journal
    // whose rows were computed by older numerics must not resume.
    // Re-pinned when it went to 5 (dual-rate cost factored by D̂), to 6
    // (the tabulated PNBS kernel with the exact Kaiser window) and to 7
    // (ranging on the captured samples, the LMS cost's row sums).
    EXPECT_EQ(campaign_identity(small_campaign()), "e5383cd108b5bd58");
}

TEST_F(CampaignJournal, JournalledRunRoundTripsThroughReadJournal) {
    const scratch_dir dir("round_trip");
    auto cfg = small_campaign();
    cfg.journal_path = dir.file("run.jsonl");
    const auto result = campaign_runner(cfg).run();

    const auto replay = read_journal(cfg.journal_path);
    EXPECT_EQ(replay.identity, campaign_identity(cfg));
    EXPECT_EQ(replay.rows.size(), result.scenario_count());
    EXPECT_EQ(replay.torn_lines, 0u);
    EXPECT_EQ(replay.valid_bytes, fs::file_size(cfg.journal_path));
    for (const auto& row : replay.rows)
        EXPECT_FALSE(row.key.empty());
}

TEST_F(CampaignJournal, ResumeFromCompleteJournalRecomputesNothing) {
    const scratch_dir dir("full_resume");
    auto cfg = small_campaign();
    cfg.journal_path = dir.file("run.jsonl");
    const auto original = campaign_runner(cfg).run();

    auto resume_cfg = cfg;
    resume_cfg.resume = true;
    std::size_t hook_rows = 0;
    run_hooks hooks;
    hooks.on_scenario = [&](const scenario_result&) { ++hook_rows; };
    const auto resumed = campaign_runner(resume_cfg).run(hooks);

    EXPECT_EQ(resumed.resumed, original.scenario_count());
    EXPECT_EQ(resumed.cache_hits + resumed.cache_misses, 0u);
    EXPECT_EQ(hook_rows, original.scenario_count())
        << "restored rows still flow through the observer hooks";
    EXPECT_EQ(timing_free_json(resumed), timing_free_json(original));
    EXPECT_EQ(coverage_csv(resumed), coverage_csv(original));
    export_options opt;
    opt.include_timing = false;
    EXPECT_EQ(scenarios_jsonl(resumed, opt),
              scenarios_jsonl(original, opt));
}

TEST_F(CampaignJournal, ResumeAfterSimulatedCrashIsByteIdentical) {
    const scratch_dir dir("crash_resume");
    auto cfg = small_campaign();

    // Reference: an uninterrupted, unjournalled run.
    const auto reference = campaign_runner(cfg).run();

    // A journalled run that "crashed": keep the header plus two completed
    // rows, then a torn half-line exactly as a mid-write kill leaves it.
    cfg.journal_path = dir.file("crashed.jsonl");
    static_cast<void>(campaign_runner(cfg).run());
    const std::string full = read_file(cfg.journal_path);
    std::size_t cut = 0;
    for (int lines = 0; lines < 3; ++cut)
        if (full[cut] == '\n')
            ++lines;
    {
        std::ofstream torn(cfg.journal_path,
                           std::ios::binary | std::ios::trunc);
        torn << full.substr(0, cut) << "{\"row\":\"scenario\",\"key\":\"ab";
    }

    auto resume_cfg = cfg;
    resume_cfg.resume = true;
    const auto resumed = campaign_runner(resume_cfg).run();

    EXPECT_EQ(resumed.resumed, 2u);
    EXPECT_EQ(timing_free_json(resumed), timing_free_json(reference));

    // The journal healed: truncated past the torn tail, then re-extended
    // with the recomputed rows — a second replay sees the whole campaign.
    const auto replay = read_journal(cfg.journal_path);
    EXPECT_EQ(replay.torn_lines, 0u);
    EXPECT_EQ(replay.rows.size(), reference.scenario_count());
}

TEST_F(CampaignJournal, ResumeAgainstADifferentCampaignIsRejected) {
    const scratch_dir dir("identity_guard");
    auto cfg = small_campaign();
    cfg.journal_path = dir.file("run.jsonl");
    static_cast<void>(campaign_runner(cfg).run());

    auto other = cfg;
    other.seed ^= 0xBEEF;
    other.resume = true;
    EXPECT_THROW(static_cast<void>(campaign_runner(other).run()),
                 contract_violation);
}

TEST_F(CampaignJournal, ResumeRequiresAJournalPath) {
    auto cfg = small_campaign();
    cfg.resume = true; // no journal_path
    EXPECT_THROW(campaign_runner runner(cfg), contract_violation);
}

TEST_F(CampaignJournal, GaveUpRowsAreNeverJournalled) {
    const scratch_dir dir("gave_up");
    auto cfg = small_campaign();
    cfg.faults = {bist::fault_kind::none};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.max_retries = 0;
    cfg.retry_backoff_ms = 0.0;
    cfg.journal_path = dir.file("run.jsonl");

    fi::arm("stage.calibration:throw-transient");
    const auto broken = campaign_runner(cfg).run();
    fi::disarm();
    ASSERT_EQ(broken.scenario_gave_up, 1u);

    // Header only: the environment-dependent verdict must be re-attempted
    // by whoever resumes, so it never becomes journal ground truth.
    const auto replay = read_journal(cfg.journal_path);
    EXPECT_EQ(replay.rows.size(), 0u);

    auto resume_cfg = cfg;
    resume_cfg.resume = true;
    const auto healed = campaign_runner(resume_cfg).run();
    EXPECT_EQ(healed.resumed, 0u);
    EXPECT_FALSE(healed.results[0].engine_error);
}

TEST_F(CampaignJournal, ReadJournalRejectsGarbage) {
    const scratch_dir dir("bad_journal");
    EXPECT_THROW(static_cast<void>(read_journal(dir.file("missing.jsonl"))),
                 contract_violation);

    const std::string no_header = dir.file("no_header.jsonl");
    std::ofstream(no_header, std::ios::binary) << "not json\n";
    EXPECT_THROW(static_cast<void>(read_journal(no_header)),
                 contract_violation);

    const std::string bad_version = dir.file("bad_version.jsonl");
    std::ofstream(bad_version, std::ios::binary)
        << R"({"row":"header","journal_version":999,"identity":"x"})"
        << "\n";
    EXPECT_THROW(static_cast<void>(read_journal(bad_version)),
                 contract_violation);
}

} // namespace
