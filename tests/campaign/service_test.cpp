// Distributed campaign service: lease-ledger lifecycle (grant → beat →
// complete; grant → lapse → re-queue; stale generations rejected),
// protocol framing over loopback, and the end-to-end contract — a
// coordinator plus workers (including one killed mid-lease) produces a
// result bit-identical to a single-process run, with the service.*
// telemetry counters exactly mirroring the ledger stats.  Plus the two
// satellite regressions: atomic shard-file publication (no torn reads)
// and cold-start --resume (a missing journal is created, not rejected);
// and hostile frames — out-of-range lease ids and heartbeat periods, and
// `complete` frames that are not exactly the granted grid slice, drop
// that one connection instead of reaching an out-of-range conversion or
// the merge.  `--jsonl` streaming sees only rows of accepted leases.
// Event-driven serving: a worker that connects after the grid completed
// is told `done` at once and still leaves its journal, a connection that
// never says `hello` does not hold serve(), and a held request takes a
// re-queued lease as soon as its holder hangs up.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#endif

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/journal.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/lease_ledger.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/service/worker.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"
#include "core/telemetry.hpp"
#include "support/scratch_dir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sdrbist;
using namespace sdrbist::campaign;
using namespace sdrbist::campaign::service;
namespace tm = sdrbist::telemetry;
using sdrbist::testing::scratch_dir;

campaign_config small_grid() {
    campaign_config cfg;
    cfg.base.tiadc.quant.full_scale = 2.0;
    cfg.base.min_output_rms = 1.2;
    cfg.presets = {waveform::find_preset("paper-qpsk-10M"),
                   waveform::find_preset("tactical-bpsk-2M")};
    cfg.faults = {bist::fault_kind::none, bist::fault_kind::pa_gain_drop};
    cfg.trials = 1;
    cfg.threads = 1;
    cfg.seed = 0x5E11Aull;
    return cfg;
}

std::string fingerprint(const campaign_result& r) {
    export_options opt;
    opt.include_timing = false;
    return to_json(r, opt);
}

std::uint64_t counter_at(const std::array<std::uint64_t, tm::counter_count>& c,
                         tm::counter which) {
    return c[static_cast<std::size_t>(which)];
}

// ---- lease ledger lifecycle -------------------------------------------------

TEST(LeaseLedger, PartitionCoversGridExactlyOnce) {
    const lease_ledger ledger(10, 4);
    ASSERT_EQ(ledger.lease_count(), 3u);
    EXPECT_EQ(ledger.range_of(0).begin, 0u);
    EXPECT_EQ(ledger.range_of(0).end, 4u);
    EXPECT_EQ(ledger.range_of(1).begin, 4u);
    EXPECT_EQ(ledger.range_of(2).begin, 8u);
    EXPECT_EQ(ledger.range_of(2).end, 10u); // last lease is short
    // Every grid index in exactly one lease.
    for (std::size_t i = 0; i < 10; ++i) {
        std::size_t owners = 0;
        for (std::size_t k = 0; k < ledger.lease_count(); ++k)
            owners += ledger.range_of(k).contains(i);
        EXPECT_EQ(owners, 1u) << "index " << i;
    }
}

TEST(LeaseLedger, GrantHeartbeatCompleteLifecycle) {
    lease_ledger ledger(4, 2);
    const auto g = ledger.grant(/*owner=*/1, /*now_s=*/0.0);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->lease, 0u);
    EXPECT_EQ(g->generation, 1u);

    EXPECT_TRUE(ledger.beat(g->lease, g->generation, 1.0));
    EXPECT_TRUE(ledger.complete(g->lease, g->generation));
    EXPECT_FALSE(ledger.all_complete());
    // Completed leases reject further frames (late duplicates).
    EXPECT_FALSE(ledger.beat(g->lease, g->generation, 2.0));
    EXPECT_FALSE(ledger.complete(g->lease, g->generation));

    const auto g2 = ledger.grant(2, 2.0);
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->lease, 1u);
    EXPECT_TRUE(ledger.complete(g2->lease, g2->generation));
    EXPECT_TRUE(ledger.all_complete());
    EXPECT_FALSE(ledger.grant(3, 3.0).has_value());

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 2u);
    EXPECT_EQ(stats.requeues, 0u);
    EXPECT_EQ(stats.heartbeats, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(LeaseLedger, LapsedLeaseRequeuesAndStaleGenerationIsRejected) {
    lease_ledger ledger(2, 2); // single lease
    const auto g1 = ledger.grant(1, 0.0);
    ASSERT_TRUE(g1.has_value());
    // Within the timeout nothing lapses; beats refresh the clock.
    EXPECT_EQ(ledger.requeue_lapsed(/*now_s=*/2.0, /*timeout_s=*/3.0), 0u);
    EXPECT_TRUE(ledger.beat(g1->lease, g1->generation, 2.0));
    EXPECT_EQ(ledger.requeue_lapsed(4.0, 3.0), 0u); // beat at 2.0 keeps it
    // Silence past the timeout re-queues.
    EXPECT_EQ(ledger.requeue_lapsed(6.0, 3.0), 1u);

    // The old generation is dead: its frames no longer count.
    EXPECT_FALSE(ledger.beat(g1->lease, g1->generation, 6.0));
    EXPECT_FALSE(ledger.complete(g1->lease, g1->generation));

    const auto g2 = ledger.grant(2, 7.0);
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->lease, g1->lease);
    EXPECT_EQ(g2->generation, g1->generation + 1);
    EXPECT_TRUE(ledger.complete(g2->lease, g2->generation));
    EXPECT_TRUE(ledger.all_complete());

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 2u);
    EXPECT_EQ(stats.requeues, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(LeaseLedger, DeadOwnerRequeuesOnlyItsLeases) {
    lease_ledger ledger(6, 2);
    const auto a = ledger.grant(/*owner=*/7, 0.0);
    const auto b = ledger.grant(/*owner=*/8, 0.0);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(ledger.requeue_owner(7), 1u);
    EXPECT_FALSE(ledger.beat(a->lease, a->generation, 1.0));
    EXPECT_TRUE(ledger.beat(b->lease, b->generation, 1.0));
    // The re-queued lease is grantable again, fresh generation.
    const auto a2 = ledger.grant(9, 1.0);
    ASSERT_TRUE(a2.has_value());
    EXPECT_EQ(a2->lease, a->lease);
    EXPECT_EQ(a2->generation, a->generation + 1);
}

TEST(LeaseLedger, TelemetryCountersMirrorStatsExactly) {
    tm::reset();
    tm::enable(/*capture_trace=*/false);
    const auto before = tm::counters();
    lease_ledger ledger(4, 1);
    const auto g0 = ledger.grant(1, 0.0);
    const auto g1 = ledger.grant(1, 0.0);
    ASSERT_TRUE(g0 && g1);
    ledger.beat(g0->lease, g0->generation, 1.0);
    ledger.beat(g1->lease, g1->generation, 1.0);
    ledger.requeue_lapsed(10.0, 3.0); // both lapse
    const auto g2 = ledger.grant(2, 10.0);
    ASSERT_TRUE(g2);
    ledger.complete(g2->lease, g2->generation);
    const auto after = tm::counters();
    tm::disable();
    tm::reset();

    const ledger_stats stats = ledger.stats();
    EXPECT_EQ(stats.leases, 3u);
    EXPECT_EQ(stats.requeues, 2u);
    EXPECT_EQ(stats.heartbeats, 2u);
    EXPECT_EQ(counter_at(after, tm::counter::service_leases) -
                  counter_at(before, tm::counter::service_leases),
              stats.leases);
    EXPECT_EQ(counter_at(after, tm::counter::service_requeues) -
                  counter_at(before, tm::counter::service_requeues),
              stats.requeues);
    EXPECT_EQ(counter_at(after, tm::counter::service_heartbeats) -
                  counter_at(before, tm::counter::service_heartbeats),
              stats.heartbeats);
}

// ---- protocol framing -------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTripOverLoopback) {
    tcp_listener listener("127.0.0.1", 0);
    ASSERT_GT(listener.port(), 0);

    auto client = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        send_frame(c, R"({"type":"ping","n":1})");
        return recv_frame(c);
    });
    tcp_socket server = listener.accept(/*timeout_s=*/5.0);
    ASSERT_TRUE(server.valid());
    const json_value msg = recv_message(server);
    EXPECT_EQ(msg.at("type").as_string(), "ping");
    // Large frame (bigger than any socket buffer) survives intact.
    const std::string big(2 * 1024 * 1024, 'x');
    send_frame(server, "{\"blob\":\"" + big + "\"}");
    const std::string reply = client.get();
    EXPECT_EQ(reply.size(), big.size() + 11);
}

TEST(ServiceProtocol, PeerDeathIsTransientOversizeIsContract) {
    tcp_listener listener("127.0.0.1", 0);
    auto client = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        c.close(); // die immediately
    });
    tcp_socket server = listener.accept(5.0);
    ASSERT_TRUE(server.valid());
    client.get();
    EXPECT_THROW(recv_frame(server), fault_injection::transient_fault);

#if defined(__unix__) || defined(__APPLE__)
    // A length prefix past the protocol bound is a violation, not an
    // allocation: 0xFFFFFFFF.
    auto client2 = std::async(std::launch::async, [&] {
        tcp_socket c = tcp_connect("127.0.0.1", listener.port());
        const char evil[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
        ::send(c.fd(), evil, 4, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    tcp_socket server2 = listener.accept(5.0);
    ASSERT_TRUE(server2.valid());
    EXPECT_THROW(recv_frame(server2), contract_violation);
    client2.get();
#endif
}

// ---- lease-range filtering (the unit the service leases) --------------------

TEST(ServiceLease, ContiguousLeasePartitionMergesBitIdentically) {
    const auto cfg = small_grid();
    const auto whole = campaign_runner(cfg).run();
    ASSERT_EQ(whole.grid_size, 4u);

    std::vector<campaign_result> pieces;
    for (const auto range :
         {lease_range{0, 1}, lease_range{1, 3}, lease_range{3, 4}}) {
        auto piece_cfg = cfg;
        piece_cfg.lease = range;
        pieces.push_back(campaign_runner(piece_cfg).run());
        EXPECT_EQ(pieces.back().results.size(), range.size());
        for (const auto& row : pieces.back().results)
            EXPECT_TRUE(range.contains(row.sc.index));
    }
    EXPECT_EQ(fingerprint(merge_results(pieces)), fingerprint(whole));
}

// ---- end-to-end: coordinator + workers over loopback ------------------------

TEST(CampaignService, TwoWorkersMatchSingleProcessBitIdentically) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.port = 0; // ephemeral
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0; // generous: 3 s of silence before a re-queue
    coordinator coord(cfg, svc);
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });
    auto w1 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    auto w2 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    const worker_report r1 = w1.get();
    const worker_report r2 = w2.get();
    const service_report report = served.get();

    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.leases.leases, 4u);
    EXPECT_EQ(report.leases.requeues, 0u);
    EXPECT_EQ(report.leases.completed, 4u);
    EXPECT_EQ(report.workers_seen, 2u);
    EXPECT_EQ(report.dropped_connections, 0u);
    EXPECT_EQ(r1.leases + r2.leases, 4u);
    EXPECT_EQ(r1.rows + r2.rows, 4u);
    EXPECT_EQ(r1.stale + r2.stale, 0u);
}

/// The kill-one-worker-mid-lease contract, in-process: a client that
/// takes a lease and silently dies (socket closed — exactly what SIGKILL
/// does to a worker's connection) must have its lease re-queued, and the
/// merged result must stay bit-identical to an uninterrupted run.
TEST(CampaignService, DeadWorkerMidLeaseIsRequeuedBitIdentically) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    tm::reset();
    tm::enable(/*capture_trace=*/false);
    const auto before = tm::counters();

    service_config svc;
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    {
        // Saboteur: handshake, take one lease, drop dead mid-lease.
        tcp_socket c = tcp_connect("127.0.0.1", svc.port);
        json_object_writer hello;
        hello.string_field("type", "hello");
        hello.size_field("protocol_version",
                         static_cast<std::size_t>(protocol_version));
        hello.string_field("identity", campaign_identity(cfg));
        send_frame(c, hello.str());
        ASSERT_EQ(recv_message(c).at("type").as_string(), "welcome");
        send_frame(c, R"({"type":"request"})");
        const json_value lease = recv_message(c);
        ASSERT_EQ(lease.at("type").as_string(), "lease");
        c.close(); // SIGKILL equivalent: EOF with the lease outstanding
    }

    const worker_report wr =
        std::async(std::launch::async, [&] { return run_worker(cfg, svc); })
            .get();
    const service_report report = served.get();
    const auto after = tm::counters();
    tm::disable();
    tm::reset();

    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    // The dead client's lease was granted, re-queued once, re-granted.
    EXPECT_EQ(report.leases.requeues, 1u);
    EXPECT_EQ(report.leases.leases, 5u); // 4 leases + 1 re-grant
    EXPECT_EQ(report.dropped_connections, 1u);
    EXPECT_EQ(report.workers_seen, 2u);
    EXPECT_EQ(wr.leases, 4u);
    // Counter ≡ result: the service counters match the ledger exactly.
    EXPECT_EQ(counter_at(after, tm::counter::service_requeues) -
                  counter_at(before, tm::counter::service_requeues),
              report.leases.requeues);
    EXPECT_EQ(counter_at(after, tm::counter::service_leases) -
                  counter_at(before, tm::counter::service_leases),
              report.leases.leases);
    EXPECT_EQ(counter_at(after, tm::counter::service_heartbeats) -
                  counter_at(before, tm::counter::service_heartbeats),
              report.leases.heartbeats);
}

TEST(CampaignService, MismatchedGridIsRejectedAtHandshake) {
    const auto cfg = small_grid();
    coordinator coord(cfg, service_config{});
    service_config svc;
    svc.port = coord.port();

    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    auto wrong = cfg;
    wrong.seed ^= 1; // different grid → different identity digest
    EXPECT_THROW(run_worker(wrong, svc), contract_violation);

    // The coordinator survives the rejection and serves the honest worker.
    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(wr.leases, report.leases.completed);
    EXPECT_EQ(report.result.results.size(), 4u);
}

// ---- hostile frames: out-of-range integers drop the connection -------------

/// A raw loopback peer that completes the handshake, so everything it
/// sends next reaches the coordinator's frame decode.
tcp_socket welcomed_peer(const campaign_config& cfg, std::uint16_t port) {
    tcp_socket c = tcp_connect("127.0.0.1", port);
    // A coordinator that stopped serving fails the test instead of hanging.
    c.set_recv_timeout(10.0);
    json_object_writer hello;
    hello.string_field("type", "hello");
    hello.size_field("protocol_version",
                     static_cast<std::size_t>(protocol_version));
    hello.string_field("identity", campaign_identity(cfg));
    send_frame(c, hello.str());
    EXPECT_EQ(recv_message(c).at("type").as_string(), "welcome");
    return c;
}

TEST(CampaignService, HostileLeaseIdsDropOnlyThatConnection) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.lease_size = 1;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    std::size_t peers = 0;
    for (const char* type : {"heartbeat", "complete"}) {
        for (const char* bad : {"-1", "1e300", "0.5"}) {
            for (const bool bad_lease : {true, false}) {
                const std::string field = bad_lease ? "lease" : "generation";
                SCOPED_TRACE(std::string(type) + " " + field + "=" + bad);
                tcp_socket c = welcomed_peer(cfg, svc.port);
                ++peers;
                const std::string lease = bad_lease ? bad : "0";
                const std::string generation = bad_lease ? "1" : bad;
                send_frame(c, std::string(R"({"type":")") + type +
                                  R"(","lease":)" + lease +
                                  R"(,"generation":)" + generation +
                                  R"(,"result":{}})");
                // No reply: the coordinator's catch closed the connection.
                EXPECT_THROW(static_cast<void>(recv_frame(c)),
                             fault_injection::transient_fault);
            }
        }
    }

    // The honest fleet still finishes the grid, bit-identically.
    auto w1 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    auto w2 = std::async(std::launch::async,
                         [&] { return run_worker(cfg, svc); });
    const worker_report r1 = w1.get();
    const worker_report r2 = w2.get();
    const service_report report = served.get();
    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.workers_seen, peers + 2);
    // The hostile peers held nothing, so nothing was re-queued.
    EXPECT_EQ(report.leases.requeues, 0u);
    EXPECT_EQ(report.dropped_connections, 0u);
    EXPECT_EQ(r1.leases + r2.leases, 4u);
}

/// Takes the next lease as `peer`; returns the grant frame.
json_value take_lease(tcp_socket& peer) {
    send_frame(peer, R"({"type":"request"})");
    json_value grant = recv_message(peer);
    EXPECT_EQ(grant.at("type").as_string(), "lease");
    return grant;
}

/// A lease-scoped frame for `grant` carrying `result` under "result".
std::string lease_frame(const char* type, const json_value& grant,
                        const std::string& result) {
    json_object_writer o;
    o.string_field("type", type);
    o.size_field("lease", grant.at("lease").as_size());
    o.size_field("generation", grant.at("generation").as_size());
    o.field("result", result);
    return o.str();
}

/// `complete` is checked against the coordinator's own grid: a peer that
/// sends the right row count but a duplicate index, or rows under other
/// axes, is dropped and its lease re-queued — it never reaches the merge,
/// so the honest worker still finishes the grid bit-identically.
TEST(CampaignService, HostileCompleteDropsOnlyThatConnection) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.lease_size = 2;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    using forgery = void (*)(campaign_result&);
    const std::vector<std::pair<const char*, forgery>> forgeries = {
        {"duplicate index",
         [](campaign_result& r) { r.results[1] = r.results[0]; }},
        {"seed axis", [](campaign_result& r) { r.seed ^= 1; }},
        {"trials axis", [](campaign_result& r) { ++r.trials; }},
        {"preset axis",
         [](campaign_result& r) {
             std::swap(r.preset_names[0], r.preset_names[1]);
         }},
        {"fault axis", [](campaign_result& r) { r.fault_names.pop_back(); }},
        {"row seed", [](campaign_result& r) { r.results[0].sc.seed ^= 1; }},
    };
    for (const auto& [what, forge] : forgeries) {
        SCOPED_TRACE(what);
        tcp_socket c = welcomed_peer(cfg, svc.port);
        const json_value grant = take_lease(c);
        const auto rows = reference.results.begin();
        campaign_result piece = reference;
        piece.results.assign(
            rows + static_cast<std::ptrdiff_t>(grant.at("begin").as_size()),
            rows + static_cast<std::ptrdiff_t>(grant.at("end").as_size()));
        forge(piece);
        send_frame(c, lease_frame("complete", grant, result_to_json(piece)));
        EXPECT_EQ(recv_message(c).at("type").as_string(), "error");
        EXPECT_THROW(static_cast<void>(recv_frame(c)),
                     fault_injection::transient_fault);
    }

    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.leases.requeues, forgeries.size());
    EXPECT_EQ(report.dropped_connections, forgeries.size());
    EXPECT_EQ(wr.leases, 2u);
    EXPECT_EQ(wr.rows, 4u);
}

/// `--jsonl` reads what the merge reads.  A peer that takes a lease, sends
/// a forged per-scenario `row` frame (a message the protocol no longer
/// has) and hangs up feeds nothing to `on_scenario`; the rows of accepted
/// completions feed every grid index exactly once.
TEST(CampaignService, ScenarioStreamCarriesOnlyAcceptedRows) {
    const auto cfg = small_grid();
    const auto reference = campaign_runner(cfg).run();
    export_options no_timing;
    no_timing.include_timing = false;

    service_config svc;
    svc.lease_size = 2;
    svc.heartbeat_s = 1.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();

    std::mutex seen_mu;
    std::vector<std::vector<std::string>> seen(reference.results.size());
    run_hooks hooks;
    hooks.on_scenario = [&](const scenario_result& r) {
        const std::lock_guard<std::mutex> lock(seen_mu);
        if (r.sc.index < seen.size())
            seen[r.sc.index].push_back(scenario_json(r, no_timing));
    };
    auto served =
        std::async(std::launch::async, [&] { return coord.serve(hooks); });

    {
        tcp_socket c = welcomed_peer(cfg, svc.port);
        const json_value grant = take_lease(c);
        scenario_result forged = reference.results[grant.at("begin").as_size()];
        forged.report.evm_pass = !forged.report.evm_pass;
        send_frame(c, lease_frame("row", grant, scenario_row_json(forged)));
        try {
            static_cast<void>(recv_frame(c));
        } catch (const fault_injection::transient_fault&) {
        }
        c.close(); // hang up holding the lease
    }

    const worker_report wr = run_worker(cfg, svc);
    const service_report report = served.get();
    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.leases.requeues, 1u);
    EXPECT_EQ(wr.rows, reference.results.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        SCOPED_TRACE("grid index " + std::to_string(i));
        ASSERT_EQ(seen[i].size(), 1u);
        EXPECT_EQ(seen[i][0], scenario_json(reference.results[i], no_timing));
    }
}

/// Serves `cfg` to one worker until serve() has returned; the coordinator
/// keeps answering connections until it is destroyed.
std::unique_ptr<coordinator> finished_coordinator(const campaign_config& cfg,
                                                  service_config& svc) {
    auto coord = std::make_unique<coordinator>(cfg, svc);
    svc.port = coord->port();
    auto served =
        std::async(std::launch::async, [&] { return coord->serve(); });
    const worker_report wr = run_worker(cfg, svc);
    EXPECT_EQ(wr.rows, 4u);
    EXPECT_EQ(served.get().result.results.size(), 4u);
    return coord;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// A worker started after serve() returned gets `welcome` and `done`
/// (0 rows) at once, instead of waiting out its receive timeout (6 ×
/// the default 5 s beat) for a reply nobody sends.
TEST(CampaignService, LateWorkerAfterCompletionGetsDone) {
    service_config svc; // default beat: the worker's recv bound is 30 s
    const auto coord = finished_coordinator(small_grid(), svc);

    const auto t0 = std::chrono::steady_clock::now();
    const worker_report late = run_worker(small_grid(), svc);
    EXPECT_LT(seconds_since(t0), 5.0);
    EXPECT_EQ(late.leases, 0u);
    EXPECT_EQ(late.rows, 0u);
    EXPECT_EQ(late.stale, 0u);
}

/// A journalled worker that never gets a lease still leaves its journal,
/// header included, so a reader finds 0 rows instead of no file.
TEST(CampaignService, ZeroLeaseWorkerLeavesJournal) {
    const scratch_dir dir("service-zero-lease");
    service_config svc;
    const auto coord = finished_coordinator(small_grid(), svc);

    auto late_cfg = small_grid();
    late_cfg.journal_path = dir.file("journal-late.jsonl");
    EXPECT_EQ(run_worker(late_cfg, svc).leases, 0u);
    const journal_replay replay = read_journal(late_cfg.journal_path);
    EXPECT_EQ(replay.identity, campaign_identity(late_cfg));
    EXPECT_TRUE(replay.rows.empty());
}

/// A connection that never sends a byte was never welcomed and holds no
/// lease, so serve() must not wait for it: with a 30 s beat its handler's
/// receive bound is 180 s, far beyond the 5 s allowed.
TEST(CampaignService, SilentConnectionDoesNotHoldServe) {
    service_config svc;
    svc.heartbeat_s = 30.0;
    coordinator coord(small_grid(), svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    const tcp_socket silent = tcp_connect("127.0.0.1", svc.port);
    // Give the accept loop time to take the silent connection first.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const worker_report wr = run_worker(small_grid(), svc);
    const auto t0 = std::chrono::steady_clock::now();
    const service_report report = served.get();
    EXPECT_LT(seconds_since(t0), 5.0);
    EXPECT_EQ(wr.rows, 4u);
    EXPECT_EQ(report.result.results.size(), 4u);
    EXPECT_EQ(report.workers_seen, 1u);
}

/// A request that cannot be granted is held, and the re-queue of a dead
/// holder's lease wakes it.  With a 30 s beat every timer path — the
/// hold's own bound (30 s), the reaper (90 s) — takes far longer than
/// the 5 s allowed, so only the wake-up passes, on any host.
TEST(CampaignService, HeldRequestTakesRequeuedLease) {
    const scratch_dir dir("service-held");
    auto cfg = small_grid();
    cfg.cache_dir = dir.file("cache"); // warm: the worker's lease is cheap
    const auto reference = campaign_runner(cfg).run();

    service_config svc;
    svc.lease_size = 4; // one lease
    svc.heartbeat_s = 30.0;
    coordinator coord(cfg, svc);
    svc.port = coord.port();
    auto served = std::async(std::launch::async, [&] { return coord.serve(); });

    tcp_socket holder = welcomed_peer(cfg, svc.port);
    take_lease(holder);
    const auto t0 = std::chrono::steady_clock::now();
    auto worker =
        std::async(std::launch::async, [&] { return run_worker(cfg, svc); });
    // Give the worker's request time to arrive and be held.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    holder.close(); // hang up holding the last lease

    const worker_report wr = worker.get();
    EXPECT_LT(seconds_since(t0), 5.0);
    EXPECT_EQ(wr.leases, 1u);
    EXPECT_EQ(wr.rows, 4u);
    const service_report report = served.get();
    EXPECT_EQ(fingerprint(report.result), fingerprint(reference));
    EXPECT_EQ(report.leases.requeues, 1u);
    EXPECT_EQ(report.leases.leases, 2u);
}

/// Serves one worker connection from a fake coordinator: answers the
/// hello with `welcome`, then (when `lease` is non-empty) the first
/// request with `lease`, and waits for the worker to hang up.
std::future<void> fake_coordinator(tcp_listener& listener,
                                   std::string welcome, std::string lease) {
    return std::async(std::launch::async, [&listener, welcome, lease] {
        tcp_socket s = listener.accept(/*timeout_s=*/10.0);
        ASSERT_TRUE(s.valid());
        s.set_recv_timeout(10.0);
        EXPECT_EQ(recv_message(s).at("type").as_string(), "hello");
        send_frame(s, welcome);
        if (!lease.empty()) {
            EXPECT_EQ(recv_message(s).at("type").as_string(), "request");
            send_frame(s, lease);
        }
        EXPECT_THROW(static_cast<void>(recv_frame(s)),
                     fault_injection::transient_fault);
    });
}

TEST(CampaignService, WorkerRejectsHostileWelcomeAndLease) {
    const auto cfg = small_grid();
    tcp_listener listener("127.0.0.1", 0);
    service_config svc;
    svc.port = listener.port();

    const std::string welcome_head =
        R"({"type":"welcome","protocol_version":2,"grid_size":4,)"
        R"("lease_count":4,"heartbeat_s":)";
    // Not finite (null is how NaN/inf travel), not > 0, or beyond the
    // longest beat period a coordinator may dictate.
    for (const char* beat : {"null", "0", "-1", "1e300"}) {
        SCOPED_TRACE(std::string("heartbeat_s=") + beat);
        auto fake =
            fake_coordinator(listener, welcome_head + beat + "}", "");
        EXPECT_THROW(static_cast<void>(run_worker(cfg, svc)),
                     contract_violation);
        fake.get();
    }

    const std::string welcome = welcome_head + "1}";
    for (const char* grant :
         {R"({"type":"lease","lease":0,"generation":1,"begin":3,"end":1})",
          R"({"type":"lease","lease":0,"generation":1,"begin":-1,"end":1})",
          R"({"type":"lease","lease":0.5,"generation":1,"begin":0,"end":1})",
          R"({"type":"lease","lease":0,"generation":1e300,)"
          R"("begin":0,"end":1})"}) {
        SCOPED_TRACE(grant);
        auto fake = fake_coordinator(listener, welcome, grant);
        EXPECT_THROW(static_cast<void>(run_worker(cfg, svc)),
                     contract_violation);
        fake.get();
    }
}

// ---- satellite regression: atomic shard-file publication --------------------

campaign_result synthetic_result(std::size_t rows) {
    campaign_result r;
    r.preset_names = {"p0"};
    r.fault_names = {"none"};
    r.trials = rows;
    r.seed = 0xF00Dull;
    r.grid_size = rows;
    for (std::size_t i = 0; i < rows; ++i) {
        scenario_result row;
        row.sc.index = i;
        row.sc.preset_index = 0;
        row.sc.fault_index = 0;
        row.sc.fault = bist::fault_kind::none;
        row.sc.trial = i;
        row.sc.preset_name = "p0";
        r.results.push_back(std::move(row));
    }
    return r;
}

TEST(ShardAtomicWrite, PublishLeavesNoTempFilesAndFailureKeepsOldFile) {
    const scratch_dir dir("shard-atomic");
    const std::string path = dir.file("result.json");
    const auto a = synthetic_result(3);
    ASSERT_TRUE(write_result_file(path, a));
    const std::string published = result_to_json(read_result_file(path));

    // A write that cannot publish (missing directory) reports failure and
    // leaves nothing behind — no target, no stray temp file.
    const std::string orphan = dir.file("missing/sub/result.json");
    EXPECT_FALSE(write_result_file(orphan, a));
    std::size_t stray = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir.path))
        stray += e.path().filename().string().find(".tmp.") !=
                 std::string::npos;
    EXPECT_EQ(stray, 0u);

    // Overwrites publish atomically too: the old content stays readable
    // until the rename lands, so a reader never sees a torn file.
    EXPECT_TRUE(write_result_file(path, synthetic_result(4)));
    EXPECT_EQ(read_result_file(path).results.size(), 4u);
    EXPECT_NE(result_to_json(read_result_file(path)), published);
}

TEST(ShardAtomicWrite, ConcurrentReaderNeverSeesATornFile) {
    const scratch_dir dir("shard-torn");
    const std::string path = dir.file("result.json");
    const auto result = synthetic_result(16);
    ASSERT_TRUE(write_result_file(path, result));
    const std::string expect = result_to_json(read_result_file(path));

    std::atomic<bool> stop{false};
    auto writer = std::async(std::launch::async, [&] {
        for (int i = 0; i < 50; ++i)
            ASSERT_TRUE(write_result_file(path, result));
        stop = true;
    });
    // With the pre-fix trunc-then-write, this reliably read half-written
    // files ("malformed shard file").  Rename publication means every
    // read observes a complete file.
    std::size_t reads = 0;
    while (!stop.load()) {
        EXPECT_EQ(result_to_json(read_result_file(path)), expect);
        ++reads;
    }
    writer.get();
    EXPECT_GT(reads, 0u);
}

// ---- satellite regression: cold-start --resume ------------------------------

TEST(JournalColdStart, ResumeAgainstMissingJournalStartsFresh) {
    const scratch_dir dir("journal-cold");
    auto cfg = small_grid();
    cfg.presets = {waveform::find_preset("paper-qpsk-10M")};
    cfg.faults = {bist::fault_kind::none};
    cfg.journal_path = dir.file("journal.jsonl");
    cfg.resume = true; // the service worker loop always passes this

    ASSERT_FALSE(fs::exists(cfg.journal_path));
    const auto first = campaign_runner(cfg).run();
    EXPECT_EQ(first.resumed, 0u); // cold start: nothing restored
    EXPECT_TRUE(fs::exists(cfg.journal_path));

    // Second run restores every row from the journal just written.
    const auto second = campaign_runner(cfg).run();
    EXPECT_EQ(second.resumed, second.results.size());
    EXPECT_EQ(fingerprint(second), fingerprint(first));
}

TEST(JournalColdStart, JournalWriterCreatesHeaderOnMissingFile) {
    const scratch_dir dir("journal-cold-hdr");
    const std::string path = dir.file("fresh.jsonl");
    {
        campaign_journal j(path, "identity-digest", /*resume=*/true);
    }
    const journal_replay replay = read_journal(path);
    EXPECT_EQ(replay.identity, "identity-digest");
    EXPECT_TRUE(replay.rows.empty());
    // An unreadable *existing* journal still fails loudly (unchanged).
    EXPECT_THROW(read_journal(dir.file("absent.jsonl")), contract_violation);
}

} // namespace
