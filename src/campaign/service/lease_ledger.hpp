/// \file lease_ledger.hpp
/// \brief Lease bookkeeping for the campaign-service coordinator.
///
/// The expanded grid is cut into contiguous `lease_range` slices of
/// `lease_size` scenarios (the last one short).  Each lease moves through
/// queued → granted → completed; a granted lease carries a **generation**
/// that increments every time it is (re-)granted, so frames from a worker
/// whose lease lapsed — heartbeats, even a late `complete` — are
/// recognisably stale and rejected.  Re-queueing happens on two signals:
/// the owner's connection died (fast path, a SIGKILLed worker's socket
/// EOFs immediately) or its heartbeats lapsed (slow path, catches
/// wedged-but-connected workers).  First accepted completion
/// wins; grid determinism makes duplicate executions byte-identical, so
/// "wins" is about accounting, not correctness.
///
/// Time is passed in by the caller (seconds on any monotonic scale), so
/// lifecycle unit tests drive lapses synthetically.
///
/// Counter ≡ result: the `service.leases` / `service.requeues` /
/// `service.heartbeats` telemetry counters are bumped at the exact state
/// transitions the `ledger_stats` fields record, so the two can be
/// asserted equal.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "campaign/campaign.hpp"

namespace sdrbist::campaign::service {

/// One granted lease as handed to a worker.
struct lease_grant {
    std::size_t lease = 0;        ///< lease id, in [0, lease_count)
    std::uint64_t generation = 0; ///< increments on every (re-)grant
    lease_range range{};          ///< grid slice the worker grades
};

/// Lifecycle tallies (mirrored 1:1 into the service.* counters).
struct ledger_stats {
    std::size_t leases = 0;     ///< grants handed out, re-grants included
    std::size_t requeues = 0;   ///< lapsed/orphaned grants re-queued
    std::size_t heartbeats = 0; ///< beats accepted on live grants
    std::size_t completed = 0;  ///< leases finished (each exactly once)
};

/// Thread-safe lease state machine.  All methods lock internally.
class lease_ledger {
public:
    /// Partition `grid_size` scenarios into ceil(grid/lease_size) slices.
    lease_ledger(std::size_t grid_size, std::size_t lease_size);

    [[nodiscard]] std::size_t lease_count() const { return ranges_.size(); }
    [[nodiscard]] lease_range range_of(std::size_t lease) const;

    /// Grant the next queued lease to `owner` (any id unique per
    /// connection).  nullopt when nothing is queued — which means either
    /// all done, or every remaining lease is granted elsewhere ("wait").
    std::optional<lease_grant> grant(std::uint64_t owner, double now_s);

    /// Record life on a grant (a heartbeat frame).  False when the
    /// (lease, generation) pair is stale — re-queued or already completed
    /// — telling the worker its effort no longer counts.
    bool beat(std::size_t lease, std::uint64_t generation, double now_s);

    /// First accepted completion retires the lease; false when stale.
    bool complete(std::size_t lease, std::uint64_t generation);

    /// Re-queue granted leases whose last beat is older than `timeout_s`.
    /// Returns how many lapsed.
    std::size_t requeue_lapsed(double now_s, double timeout_s);

    /// Re-queue every lease granted to `owner` (its connection died).
    std::size_t requeue_owner(std::uint64_t owner);

    [[nodiscard]] bool all_complete() const;
    [[nodiscard]] ledger_stats stats() const;

private:
    enum class state { queued, granted, completed };
    struct entry {
        state st = state::queued;
        std::uint64_t generation = 0;
        std::uint64_t owner = 0;
        double last_beat_s = 0.0;
    };

    [[nodiscard]] bool current_locked(std::size_t lease,
                                      std::uint64_t generation) const;

    mutable std::mutex mu_;
    std::vector<lease_range> ranges_;
    std::vector<entry> entries_;
    std::size_t completed_ = 0;
    ledger_stats stats_;
};

} // namespace sdrbist::campaign::service
