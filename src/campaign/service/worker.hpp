/// \file worker.hpp
/// \brief Campaign-service worker loop: lease → grade → complete → repeat.
///
/// `campaign_runner --worker HOST:PORT` wraps `run_worker()`.  The worker
/// connects (retrying while the coordinator comes up), handshakes with
/// its `campaign_identity()` digest, then loops: request a lease, grade
/// the slice with a plain `campaign_runner` (the `lease` filter on
/// `campaign_config`), and post the per-lease `campaign_result` as
/// `complete` — the only frame that carries rows, so a lease is two
/// request/response exchanges plus its beats.  While a lease computes, a
/// sidecar thread heartbeats at the cadence the `welcome` frame dictates
/// (the coordinator's `heartbeat_s` — its re-queue timeout derives from
/// it, so the two can never disagree); the beats and the main loop share
/// one connection behind a mutex (the protocol is strictly request →
/// response, so interleaving is safe).
///
/// Failure model: losing the coordinator mid-anything raises
/// `transient_fault` out of `run_worker` — the process exits and the
/// operator (or supervisor) restarts it.  A `stale` reply means the
/// lease lapsed under us (we were presumed dead); the worker finishes
/// the compute (it cannot be cancelled mid-scenario), shrugs off the
/// rejected completion and asks for fresh work.  Grid determinism makes
/// the duplicate execution harmless.
///
/// When the config names a journal, `resume` is forced on: the journal
/// spans every lease this worker executes (the identity excludes the
/// lease range), so a restarted worker re-grades only what its journal
/// misses.  Cold start — resume against a journal that does not exist
/// yet — just creates it, before the first request, so a worker that
/// never gets a lease still leaves its journal, header included.
///
/// A `wait` reply means the coordinator held the request for a full beat
/// period without a grant; the worker asks again at once (the hold is the
/// pacing, so there is nothing to nap for).
#pragma once

#include <cstddef>

#include "campaign/campaign.hpp"
#include "campaign/service/coordinator.hpp" // service_config

namespace sdrbist::campaign::service {

/// Tallies from one worker process's service session.
struct worker_report {
    std::size_t leases = 0;     ///< leases completed and accepted
    std::size_t stale = 0;      ///< completions rejected as lapsed
    std::size_t rows = 0;       ///< scenario rows in accepted completions
    std::size_t heartbeats = 0; ///< beats sent by the sidecar thread
};

/// Run the worker loop until the coordinator says `done`.  Throws
/// `transient_fault` when the coordinator cannot be reached (after the
/// connect-retry window) or disappears mid-run, `contract_violation` on
/// handshake mismatches.  `grid` must carry the same grid flags as the
/// coordinator's; its `shard`/`lease` must be unset (leases arrive over
/// the wire).
worker_report run_worker(campaign_config grid, const service_config& svc);

} // namespace sdrbist::campaign::service
