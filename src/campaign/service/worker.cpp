#include "campaign/service/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/journal.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"

namespace sdrbist::campaign::service {

namespace {

using fault_injection::transient_fault;

/// How long a starting worker keeps retrying the coordinator's address —
/// covers the "worker launched a beat before --serve bound" race without
/// masking a truly absent coordinator.
constexpr double connect_retry_window_s = 15.0;

std::string simple_msg(const char* type) {
    json_object_writer o;
    o.string_field("type", type);
    return o.str();
}

std::string lease_msg(const char* type, std::size_t lease,
                      std::uint64_t generation) {
    json_object_writer o;
    o.string_field("type", type);
    o.size_field("lease", lease);
    o.size_field("generation", static_cast<std::size_t>(generation));
    return o.str();
}

tcp_socket connect_with_retry(const service_config& svc) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(
                              connect_retry_window_s);
    for (;;) {
        try {
            return tcp_connect(svc.host, svc.port);
        } catch (const transient_fault&) {
            if (std::chrono::steady_clock::now() >= deadline)
                throw;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    }
}

} // namespace

worker_report run_worker(campaign_config grid, const service_config& svc) {
    SDRBIST_EXPECTS(grid.shard.count == 1);
    SDRBIST_EXPECTS(!grid.lease);
    // One journal spans every lease this worker executes; always resume
    // (cold start just creates the file — see campaign/journal.cpp).
    if (!grid.journal_path.empty())
        grid.resume = true;

    // Local copy: the hello reply overrides the beat cadence with the
    // coordinator's, whose reaper timeout is derived from it — a worker
    // launched with a mismatched (or default) --heartbeat-s must not get
    // reaped as silent while healthily computing.
    service_config cadence = svc;

    tcp_socket sock = connect_with_retry(svc);
    sock.set_recv_timeout(std::max(2.0 * svc.timeout(), 5.0));

    // One connection, strict request → response: the main loop and the
    // heartbeat sidecar serialise whole exchanges behind this mutex.
    std::mutex wire_mu;
    auto transact = [&](const std::string& payload) {
        const std::lock_guard<std::mutex> lock(wire_mu);
        send_frame(sock, payload);
        return recv_message(sock);
    };

    {
        json_object_writer o;
        o.string_field("type", "hello");
        o.size_field("protocol_version",
                     static_cast<std::size_t>(protocol_version));
        o.string_field("identity", campaign_identity(grid));
        const json_value welcome = transact(o.str());
        if (welcome.at("type").as_string() == "error")
            throw contract_violation("coordinator rejected this worker: " +
                                     welcome.at("what").as_string());
        SDRBIST_EXPECTS(welcome.at("type").as_string() == "welcome");
        cadence.heartbeat_s = welcome.at("heartbeat_s").as_number();
        SDRBIST_EXPECTS(cadence.heartbeat_s > 0.0 &&
                        cadence.heartbeat_s <= max_heartbeat_s);
        sock.set_recv_timeout(std::max(2.0 * cadence.timeout(), 5.0));
    }

    // The journal exists, header included, even if no lease ever arrives
    // (a worker that joins a finished grid is told `done` at once).
    if (!grid.journal_path.empty()) {
        const campaign_journal created(grid.journal_path,
                                       campaign_identity(grid),
                                       /*resume=*/true);
    }

    worker_report report;
    std::atomic<std::size_t> beats{0};

    for (;;) {
        const json_value reply = transact(simple_msg("request"));
        const std::string type = reply.at("type").as_string();
        if (type == "done")
            break;
        if (type == "wait")
            continue; // held for a full beat already: ask again at once
        if (type == "error")
            throw contract_violation("coordinator error: " +
                                     reply.at("what").as_string());
        SDRBIST_EXPECTS(type == "lease");
        const std::size_t lease = reply.at("lease").as_size();
        const std::uint64_t generation = reply.at("generation").as_size();

        campaign_config cfg = grid;
        cfg.lease =
            lease_range{reply.at("begin").as_size(), reply.at("end").as_size()};
        SDRBIST_EXPECTS(cfg.lease->begin <= cfg.lease->end);

        // The engine cannot be cancelled mid-scenario, so a connection
        // that dies during the compute is only *recorded* here; the lease
        // finishes locally and the failure is rethrown afterwards.
        std::atomic<bool> conn_dead{false};
        std::mutex beat_mu;
        std::condition_variable beat_cv;
        bool computing = true;
        std::thread beater([&] {
            std::unique_lock<std::mutex> lock(beat_mu);
            for (;;) {
                beat_cv.wait_for(
                    lock,
                    std::chrono::duration<double>(cadence.heartbeat_s),
                    [&] { return !computing; });
                if (!computing)
                    return;
                lock.unlock();
                try {
                    transact(lease_msg("heartbeat", lease, generation));
                    beats.fetch_add(1, std::memory_order_relaxed);
                } catch (const std::exception&) {
                    conn_dead.store(true, std::memory_order_relaxed);
                    return;
                }
                lock.lock();
            }
        });

        const auto stop_beater = [&] {
            {
                const std::lock_guard<std::mutex> lock(beat_mu);
                computing = false;
            }
            beat_cv.notify_all();
            beater.join();
        };
        campaign_result result;
        try {
            result = campaign_runner(cfg).run();
        } catch (...) {
            stop_beater();
            throw;
        }
        stop_beater();
        if (conn_dead.load(std::memory_order_relaxed))
            throw transient_fault("lost the coordinator mid-lease");

        json_object_writer o;
        o.string_field("type", "complete");
        o.size_field("lease", lease);
        o.size_field("generation", static_cast<std::size_t>(generation));
        o.field("result", result_to_json(result));
        const json_value resp = transact(o.str());
        if (resp.at("type").as_string() == "ok") {
            ++report.leases;
            report.rows += result.results.size();
        } else {
            ++report.stale; // lapsed under us; the re-run is deterministic
        }
    }

    report.heartbeats = beats.load(std::memory_order_relaxed);
    return report;
}

} // namespace sdrbist::campaign::service
