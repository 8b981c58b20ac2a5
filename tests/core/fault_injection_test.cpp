// Deterministic fault injection: spec grammar, trigger semantics (nth
// arrival, every-nth, seeded Bernoulli), all four actions, arrival/fired
// accounting and the disarm guarantees the production probes rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/fault_injection.hpp"

namespace {

using namespace sdrbist;
namespace fi = sdrbist::fault_injection;

/// Injection state is process-global; every test starts and ends disarmed
/// so suites sharing this binary never see stray clauses.
class FaultInjection : public ::testing::Test {
protected:
    void SetUp() override { fi::disarm(); }
    void TearDown() override { fi::disarm(); }
};

TEST_F(FaultInjection, DisarmedProbesAreInert) {
    EXPECT_FALSE(fi::armed());
    EXPECT_NO_THROW(fi::fire(fi::site::stage_stimulus));
    std::string payload = "intact";
    EXPECT_FALSE(fi::corrupt(fi::site::store_store, payload));
    EXPECT_EQ(payload, "intact");
    // Disarmed probes do not even count arrivals (fast path only).
    EXPECT_EQ(fi::arrivals(fi::site::stage_stimulus), 0u);
}

TEST_F(FaultInjection, GrammarErrorsThrowContractViolations) {
    const std::vector<std::string> bad = {
        "nonsense",
        "stage.nope:throw-transient",
        "stage.grading:explode",
        "stage.grading:throw-transient:count=x",
        "stage.grading:throw-transient:every=0",
        "stage.grading:throw-transient:p=1.5,seed=1",
        "stage.grading:throw-transient:p=0.5", // missing seed
        "stage.grading:delay-ms=abc",
        ":throw-transient",
        // Numbers must be plain digits that fit: no sign (stoull would
        // wrap -1 to 2^64 - 1, a count that never fires), no NaN
        // probability, no delay past int.
        "stage.grading:throw-transient:count=-1",
        "stage.grading:throw-transient:count=+3",
        "stage.grading:throw-transient:count=18446744073709551616",
        "stage.grading:throw-transient:p=nan,seed=1",
        "stage.grading:delay-ms=-5",
        "stage.grading:delay-ms=4294967297",
    };
    for (const auto& spec : bad) {
        EXPECT_THROW(fi::arm(spec), contract_violation) << spec;
        EXPECT_FALSE(fi::armed()) << "a bad spec must not half-install";
    }
}

TEST_F(FaultInjection, EmptySpecDisarms) {
    fi::arm("stage.grading:throw-transient");
    EXPECT_TRUE(fi::armed());
    fi::arm("");
    EXPECT_FALSE(fi::armed());
}

TEST_F(FaultInjection, CountTriggerFiresExactlyOnce) {
    fi::arm("stage.grading:throw-transient:count=3");
    EXPECT_NO_THROW(fi::fire(fi::site::stage_grading));
    EXPECT_NO_THROW(fi::fire(fi::site::stage_grading));
    EXPECT_THROW(fi::fire(fi::site::stage_grading), fi::transient_fault);
    EXPECT_NO_THROW(fi::fire(fi::site::stage_grading));
    EXPECT_EQ(fi::arrivals(fi::site::stage_grading), 4u);
    EXPECT_EQ(fi::fired(fi::site::stage_grading), 1u);
    // Other sites are untouched.
    EXPECT_NO_THROW(fi::fire(fi::site::stage_stimulus));
    EXPECT_EQ(fi::fired(fi::site::stage_stimulus), 0u);
}

TEST_F(FaultInjection, EveryTriggerFiresPeriodically) {
    fi::arm("store.load:throw-transient:every=2");
    std::size_t thrown = 0;
    for (int i = 0; i < 6; ++i)
        try {
            fi::fire(fi::site::store_load);
        } catch (const fi::transient_fault&) {
            ++thrown;
        }
    EXPECT_EQ(thrown, 3u); // arrivals 2, 4, 6
    EXPECT_EQ(fi::fired(fi::site::store_load), 3u);
}

TEST_F(FaultInjection, ProbabilityTriggerIsSeedDeterministic) {
    const std::string spec = "pool.dispatch:throw-transient:p=0.3,seed=42";
    const auto pattern = [&] {
        fi::arm(spec); // re-arming zeroes the arrival ordinals
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            try {
                fi::fire(fi::site::pool_dispatch);
                fired.push_back(false);
            } catch (const fi::transient_fault&) {
                fired.push_back(true);
            }
        return fired;
    };
    const auto first = pattern();
    const auto second = pattern();
    EXPECT_EQ(first, second);
    const std::size_t hits =
        static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
    EXPECT_GT(hits, 0u) << "p=0.3 over 64 arrivals must fire sometimes";
    EXPECT_LT(hits, 64u) << "...but not always";

    // A different seed produces a different pattern.
    fi::arm("pool.dispatch:throw-transient:p=0.3,seed=43");
    std::vector<bool> other;
    for (int i = 0; i < 64; ++i)
        try {
            fi::fire(fi::site::pool_dispatch);
            other.push_back(false);
        } catch (const fi::transient_fault&) {
            other.push_back(true);
        }
    EXPECT_NE(first, other);
}

TEST_F(FaultInjection, ContractActionThrowsContractViolation) {
    fi::arm("shard.read:throw-contract");
    EXPECT_THROW(fi::fire(fi::site::shard_read), contract_violation);
}

TEST_F(FaultInjection, DelayActionDelaysWithoutThrowing) {
    fi::arm("stage.stimulus:delay-ms=1");
    EXPECT_NO_THROW(fi::fire(fi::site::stage_stimulus));
    EXPECT_EQ(fi::fired(fi::site::stage_stimulus), 1u);
}

TEST_F(FaultInjection, CorruptActionManglesOnlyThePayloadProbe) {
    fi::arm("store.store:corrupt-bytes");
    // corrupt-bytes never acts through fire()...
    EXPECT_NO_THROW(fi::fire(fi::site::store_store));
    // ...only through corrupt(), which deterministically mangles.
    std::string payload(64, 'x');
    const std::string original = payload;
    EXPECT_TRUE(fi::corrupt(fi::site::store_store, payload));
    EXPECT_NE(payload, original);
    // A site without a corrupt clause passes payloads through untouched.
    std::string other = "untouched";
    EXPECT_FALSE(fi::corrupt(fi::site::shard_write, other));
    EXPECT_EQ(other, "untouched");
}

TEST_F(FaultInjection, WildcardSiteMatchesEverySite) {
    fi::arm("*:throw-transient");
    EXPECT_THROW(fi::fire(fi::site::stage_calibration), fi::transient_fault);
    EXPECT_THROW(fi::fire(fi::site::journal_append), fi::transient_fault);
    EXPECT_THROW(fi::fire(fi::site::shard_merge), fi::transient_fault);
}

TEST_F(FaultInjection, MultiClauseSpecsApplyIndependently) {
    fi::arm("stage.grading:throw-transient:count=1;"
            "store.load:throw-contract:count=2");
    EXPECT_THROW(fi::fire(fi::site::stage_grading), fi::transient_fault);
    EXPECT_NO_THROW(fi::fire(fi::site::store_load));
    EXPECT_THROW(fi::fire(fi::site::store_load), contract_violation);
}

TEST_F(FaultInjection, SiteNamesRoundTripThroughToString) {
    // The spec parser accepts exactly the names to_string emits.
    for (std::size_t i = 0; i < fi::site_count; ++i) {
        const auto s = static_cast<fi::site>(static_cast<int>(i));
        EXPECT_NO_THROW(
            fi::arm(std::string(fi::to_string(s)) + ":delay-ms=0"));
    }
    // Scenario entries load and publish through the store's entry path.
    EXPECT_THROW(fi::arm("cache.load:delay-ms=0"), contract_violation);
    EXPECT_THROW(fi::arm("cache.store:delay-ms=0"), contract_violation);
}

} // namespace
