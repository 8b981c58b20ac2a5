/// \file fault_injection.hpp
/// \brief Deterministic fault injection at the seams the campaign layer
///        already owns — the probe half of the failure-containment story.
///
/// The paper's BIST philosophy applies to the harness itself: a system
/// that claims to survive faults must be able to *inject* them on demand
/// and prove the containment machinery (scenario retry/backoff, the
/// crash-recovery journal, corrupt-input quarantine) actually engages.
/// This module is a registry of named injection sites threaded through
/// the production code paths:
///
///  * pipeline stage entry (`stage.*`, bist/pipeline.cpp)
///  * scenario-cache load/store (`cache.*`, campaign/cache.cpp)
///  * shard file read/write/merge (`shard.*`, campaign/shard_io.cpp)
///  * campaign scenario task dispatch (`pool.dispatch`, campaign.cpp)
///  * recovery-journal append (`journal.append`, campaign/journal.cpp)
///  * campaign-service protocol frames (`service.*`, campaign/service/)
///
/// Arming is explicit — programmatic `arm(spec)` or the
/// `SDRBIST_FAULT_SPEC` environment variable (read once at load) — and
/// every trigger decision is a pure function of (site, arrival ordinal,
/// spec), so a single-threaded run fires the exact same faults every
/// time.  Spec grammar (clauses separated by `;`):
///
///     clause  := site ':' action [':' trigger]
///     site    := "stage.stimulus" | ... | "pool.dispatch" | '*'
///     action  := "throw-transient" | "throw-contract"
///              | "corrupt-bytes" | "delay-ms=" <int>
///     trigger := "count=" <n>            fire on exactly the n-th arrival
///              | "every=" <n>            fire on every n-th arrival
///              | "p=" <float> ",seed=" <int>   seeded per-arrival Bernoulli
///
/// e.g. `SDRBIST_FAULT_SPEC='*:throw-transient:p=0.05,seed=7'` or
/// `store.load:corrupt-bytes:count=2;stage.grading:delay-ms=40:every=3`.
/// Omitting the trigger fires on every arrival.  Integers are unsigned
/// decimal digits only (no sign, no blanks, no overflow) and `delay-ms`
/// must fit in an int; `p` must be a number in [0, 1] (NaN is rejected).
///
/// Contracts (same cost discipline as `core/telemetry`):
///  * **Off by default, one relaxed atomic load when disarmed.**  `fire()`
///    and `corrupt()` are inline fast paths that never touch the registry
///    while disarmed.
///  * `throw-transient` raises `transient_fault` (a `std::runtime_error`)
///    — the retryable class; `throw-contract` raises
///    `sdrbist::contract_violation` — deterministic, never retried.
///  * `corrupt-bytes` clauses only act through `corrupt()`, which write
///    sites call on their serialised payload; throw/delay clauses only
///    act through `fire()`.  A site that supports both calls `fire()`
///    first — `corrupt()` reuses the arrival ordinal `fire()` counted.
///
/// Thread safety: arming/disarming and firing may race; triggers read an
/// immutable installed spec and per-site atomic arrival counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sdrbist::fault_injection {

/// Injection sites.  Stage sites come first, in `bist::stage` order.
enum class site : int {
    stage_stimulus = 0,   ///< pipeline stage 0 entry (bist/pipeline.cpp)
    stage_tx_capture,     ///< pipeline stage 1 entry
    stage_calibration,    ///< pipeline stage 2 entry
    stage_reconstruction, ///< pipeline stage 3 entry
    stage_grading,        ///< pipeline stage 4 entry
    shard_read,           ///< shard result-file read (shard_io.cpp)
    shard_write,          ///< shard result-file write
    shard_merge,          ///< merge_results() entry (campaign.cpp)
    pool_dispatch,        ///< campaign scenario task entry — the pool
                          ///< hand-off boundary, inside retry containment
    journal_append,       ///< recovery-journal line append (journal.cpp)
    service_send,         ///< campaign-service frame send (service/protocol.cpp)
    service_recv,         ///< campaign-service frame receive
    store_load,           ///< store entry load, stage and scenario kinds
                          ///< alike (campaign/artefact_store/;
                          ///< corrupt-bytes garbles the just-read entry so
                          ///< read-side quarantine can be exercised)
    store_store,          ///< store entry publish (best-effort write site,
                          ///< corrupt-bytes capable)
};
inline constexpr std::size_t site_count = 14;

/// Stable spec/export name ("stage.stimulus", "pool.dispatch", ...).
const char* to_string(site s);

/// The retryable failure class every `throw-transient` clause raises.
/// Scenario retry treats any non-`contract_violation` `std::exception`
/// as transient; this type just makes injected ones recognisable.
class transient_fault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

namespace detail {

/// One relaxed load of this word is the whole cost of a probe while
/// fault injection is disarmed.
inline std::atomic<unsigned> g_armed{0};

void fire_slow(site s);
bool corrupt_slow(site s, std::string& payload);

} // namespace detail

/// Arrival probe: count the arrival and apply any matching throw/delay
/// clause.  May throw `transient_fault` or `contract_violation`.
inline void fire(site s) {
    if (detail::g_armed.load(std::memory_order_relaxed) == 0)
        return;
    detail::fire_slow(s);
}

/// Payload probe for write sites: deterministically mangle `payload`
/// (truncate + tag) when a `corrupt-bytes` clause triggers.  Returns true
/// when the payload was corrupted.  Never throws; call after `fire()`.
inline bool corrupt(site s, std::string& payload) {
    if (detail::g_armed.load(std::memory_order_relaxed) == 0)
        return false;
    return detail::corrupt_slow(s, payload);
}

/// Parse `spec` (grammar above) and install it, replacing any previous
/// spec and zeroing all per-site counters.  An empty spec disarms.
/// Throws `contract_violation` on grammar errors.
void arm(const std::string& spec);

/// Arm from `SDRBIST_FAULT_SPEC` if set (also done once automatically at
/// process start).  Returns true when a spec was installed.
bool arm_from_env();

/// Remove every clause and zero all counters; probes return to the
/// one-relaxed-load fast path.
void disarm();

/// True while a spec is installed.
bool armed();

/// Arrivals counted at `s` since the last arm()/disarm().
std::uint64_t arrivals(site s);

/// Clauses actually triggered at `s` (throws, delays and corruptions).
std::uint64_t fired(site s);

} // namespace sdrbist::fault_injection
