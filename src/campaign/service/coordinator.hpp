/// \file coordinator.hpp
/// \brief Campaign-service coordinator: owns the lease ledger, serves
///        workers over TCP, merges completed leases bit-identically.
///
/// `campaign_runner --serve HOST:PORT` wraps this class.  The coordinator
/// never grades a scenario itself: it partitions the expanded grid into
/// `lease_range` slices (see lease_ledger.hpp), hands them to workers on
/// request, and treats worker death as an expected event — a dead
/// connection or a lapsed heartbeat re-queues the lease for the next
/// requester.  Each accepted `complete` frame carries the worker's
/// per-lease `campaign_result` (the shard-file codec), and the final
/// answer is `merge_results()` over the lease results — the same
/// exact-coverage merge the CLI `--merge` path uses, so exports are
/// byte-identical (timing suppressed) to a single-process run of the
/// same grid.
///
/// Grid submission is by construction: coordinator and workers are
/// launched with the *same grid flags*, and the hello handshake compares
/// `campaign_identity()` digests — the wire never carries the engine
/// config, only lease ranges and result rows.
///
/// Threading: one accept loop (inside `serve()`), one detached-joinable
/// handler thread per connection, one reaper thread re-queueing lapsed
/// leases.  All lease state lives in the internally-locked ledger.
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
    /// Grants with no beat for this long are re-queued; 0 derives the
    /// default 3 × heartbeat_s (one lost beat is jitter, three is death).
    double lease_timeout_s = 0.0;

    [[nodiscard]] double timeout() const {
        return lease_timeout_s > 0.0 ? lease_timeout_s : 3.0 * heartbeat_s;
    }
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
    ~coordinator();
    coordinator(const coordinator&) = delete;
    coordinator& operator=(const coordinator&) = delete;

    [[nodiscard]] std::uint16_t port() const;

    /// Serve workers until every lease completes, then merge and return.
    /// `hooks.on_scenario` fires once per grid row as its first copy
    /// streams in (duplicates from re-run leases are suppressed), so
    /// `--jsonl` streaming works exactly like a local run.
    service_report serve(const run_hooks& hooks = {});

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

} // namespace sdrbist::campaign::service
