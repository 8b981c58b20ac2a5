/// \file coordinator.hpp
/// \brief Campaign-service coordinator: owns the lease ledger, serves
///        workers over TCP, merges completed leases bit-identically.
///
/// `campaign_runner --serve HOST:PORT` wraps this class.  The coordinator
/// never grades a scenario itself: it partitions the expanded grid into
/// `lease_range` slices (see lease_ledger.hpp), hands them to workers on
/// request, and treats worker death as an expected event — a dead
/// connection or a lapsed heartbeat re-queues the lease for the next
/// requester.  The lease is the one unit in which results are delivered:
/// a `complete` frame carries the worker's per-lease `campaign_result`
/// (the shard-file codec), accepted only when its axes are the
/// coordinator's and row k is grid scenario `begin + k`.  The final
/// answer is `merge_results()` over the accepted lease results — the same
/// exact-coverage merge the CLI `--merge` path uses, so exports are
/// byte-identical (timing suppressed) to a single-process run of the
/// same grid.
///
/// Grid submission is by construction: coordinator and workers are
/// launched with the *same grid flags*, and the hello handshake compares
/// `campaign_identity()` digests — the wire never carries the engine
/// config, only lease ranges and result rows.
///
/// Serving is event-driven.  A `request` that cannot be granted yet is held
/// until a ledger transition makes a grant possible (an accepted
/// `complete`, a re-queue), the grid completes, or `heartbeat_s` passes
/// (then `wait`).  One condition variable carries every such transition,
/// so a held request never polls.
///
/// Threading: `serve()` starts one accept thread and one reaper thread
/// re-queueing lapsed leases; each connection gets its own handler
/// thread.  All lease state lives in the internally-locked ledger.  The
/// accept thread outlives `serve()`: it blocks on the listener and a
/// self-pipe together, and only `~coordinator` stops it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/service/lease_ledger.hpp"

namespace sdrbist::campaign::service {

/// Longest beat period a coordinator may dictate (one day).  Timeouts
/// derived from it must stay representable as socket and clock
/// durations, so workers reject a `welcome` beyond it.
inline constexpr double max_heartbeat_s = 86400.0;

/// Knobs shared by `--serve` and `--worker`.
struct service_config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;    ///< 0 = bind an ephemeral port (see port())
    std::size_t lease_size = 4; ///< scenarios per lease
    double heartbeat_s = 5.0;  ///< worker beat period while computing

    /// Grants with no beat for this long are re-queued: one lost beat is
    /// jitter, three is death.
    [[nodiscard]] double timeout() const { return 3.0 * heartbeat_s; }
};

/// What `serve()` hands back, beyond the merged result.
struct service_report {
    campaign_result result;    ///< merge_results() over completed leases
    ledger_stats leases;       ///< counter≡result-exact lifecycle tallies
    std::size_t workers_seen = 0; ///< successful hello handshakes
    /// Connections that died while holding leases (every one re-queued).
    std::size_t dropped_connections = 0;
};

class coordinator {
public:
    /// Binds the listener immediately (so `port()` is valid before
    /// `serve()`); throws contract_violation when the address is taken.
    /// The grid config must be unsharded and journal-free — the
    /// coordinator delegates all grading.
    coordinator(campaign_config grid, service_config svc);
    /// Stops accepting, wakes the connections still open (they hold no
    /// lease once the grid completed) and joins every thread.  From
    /// `serve()` until then the coordinator answers every connection, even
    /// after `serve()` returned: a worker that starts after the grid
    /// completed gets `welcome` and then `done`, with 0 rows.
    ~coordinator();
    coordinator(const coordinator&) = delete;
    coordinator& operator=(const coordinator&) = delete;

    [[nodiscard]] std::uint16_t port() const;

    /// Serve workers until every lease completes, then merge and return;
    /// call it at most once.  It returns as soon as the last lease is
    /// accepted and every connection that completed `hello` before then
    /// has finished (its worker hangs up after `done`).  A connection not
    /// welcomed by then holds no lease, so it is not waited for: like a
    /// late one, it is answered until ~coordinator.  `hooks.on_scenario`
    /// fires once per grid row, for the rows of each `complete` the ledger
    /// accepts, so `--jsonl` carries exactly the rows the merge reads.
    /// Like a local run's, calls may be concurrent (one per connection
    /// handler); the callee synchronises.  A handler reads the hooks when
    /// it accepts a `complete`; once `serve()` has stopped waiting for
    /// handlers it finds none, and it can never accept a `complete` then,
    /// because the ledger is already complete.
    service_report serve(const run_hooks& hooks = {});

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

} // namespace sdrbist::campaign::service
