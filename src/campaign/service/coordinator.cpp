#include "campaign/service/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/service/protocol.hpp"
#include "campaign/shard_io.hpp"
#include "core/contracts.hpp"
#include "core/fault_injection.hpp"

namespace sdrbist::campaign::service {

namespace {

std::string simple_msg(const char* type) {
    json_object_writer o;
    o.string_field("type", type);
    return o.str();
}

std::string error_msg(const std::string& what) {
    json_object_writer o;
    o.string_field("type", "error");
    o.string_field("what", what);
    return o.str();
}

} // namespace

struct coordinator::impl {
    campaign_config config;
    service_config svc;
    std::string identity;
    std::vector<scenario> grid; ///< what every `complete` row must echo
    lease_ledger ledger;
    tcp_listener listener;

    std::atomic<std::uint64_t> next_owner{0};
    std::atomic<std::size_t> workers_seen{0};
    std::atomic<std::size_t> dropped{0};

    std::mutex results_mu;
    std::vector<std::optional<campaign_result>> lease_results;

    /// Ledger transitions that can unblock a held request (an accepted
    /// `complete`, a re-queue, the grid completing) bump `changes` and
    /// wake every waiter: held requests, the reaper and serve().  `done`
    /// is set by the `complete` that finishes the grid (or ~coordinator).
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::uint64_t changes = 0;
    bool done = false;

    /// One accepted connection and the thread serving it.  A list, so a
    /// handler's reference to its own entry survives later accepts and
    /// serve()'s splice.  `welcomed` is set once, under `conn_mu`, by the
    /// handler that answered the connection's `hello`.
    struct connection {
        tcp_socket sock;
        std::thread thread;
        bool welcomed = false;
    };
    /// Guards `connections`, `serve_hooks`, every `welcomed` write and
    /// every socket's close().
    std::mutex conn_mu;
    std::list<connection> connections;
    /// The hooks of the running serve(); null before it and once it has
    /// taken the welcomed handlers to join.  A handler reads it when it
    /// accepts a `complete`: non-null then means serve() will join it.
    const run_hooks* serve_hooks = nullptr;
    std::thread reaper;   ///< started by serve()
    std::thread acceptor; ///< started by serve(), joined by ~coordinator

    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    impl(campaign_config cfg, service_config s)
        : config(std::move(cfg)),
          svc(s),
          identity(campaign_identity(config)),
          grid(expand_grid(config)),
          ledger(grid.size(), s.lease_size),
          listener(s.host, s.port),
          lease_results(ledger.lease_count()) {}

    [[nodiscard]] double now_s() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch)
            .count();
    }

    void notify(bool finished = false) {
        {
            const std::lock_guard<std::mutex> lock(wake_mu);
            ++changes;
            done = done || finished;
        }
        wake_cv.notify_all();
    }

    /// Periodically re-queue grants whose heartbeats lapsed — the slow
    /// detection path, for workers that wedge without dropping the
    /// connection.  (A dead connection re-queues immediately instead.)
    void reap() {
        const auto period = std::chrono::duration<double>(
            std::max(svc.timeout() / 4.0, 0.05));
        std::unique_lock<std::mutex> lock(wake_mu);
        while (!done) {
            wake_cv.wait_for(lock, period, [this] { return done; });
            lock.unlock();
            if (ledger.requeue_lapsed(now_s(), svc.timeout()) > 0)
                notify();
            lock.lock();
        }
    }

    /// Answer a `request`.  When nothing can be granted yet the request is
    /// held until a transition makes a grant possible, the grid completes,
    /// or `heartbeat_s` passes (then `wait`, and the worker asks again).
    /// `changes` is read before each grant attempt, so a transition that
    /// lands between the attempt and the wait is never slept through.
    std::string answer_request(std::uint64_t owner) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(svc.heartbeat_s));
        std::unique_lock<std::mutex> lock(wake_mu);
        for (;;) {
            const std::uint64_t seen = changes;
            if (done)
                return simple_msg("done");
            lock.unlock();
            if (const auto g = ledger.grant(owner, now_s())) {
                json_object_writer o;
                o.string_field("type", "lease");
                o.size_field("lease", g->lease);
                o.size_field("generation",
                             static_cast<std::size_t>(g->generation));
                o.size_field("begin", g->range.begin);
                o.size_field("end", g->range.end);
                return o.str();
            }
            if (ledger.all_complete())
                return simple_msg("done");
            lock.lock();
            if (!wake_cv.wait_until(lock, deadline,
                                    [&] { return changes != seen; }))
                return simple_msg("wait");
        }
    }

    /// Validate that an incoming lease result is exactly the granted
    /// slice of this campaign: the coordinator's own axes, and row k
    /// echoing grid scenario `range.begin + k` field for field.  Anything
    /// looser lets a peer smuggle a duplicate or foreign row past the
    /// ledger into merge_results(), which would reject the whole grid.
    [[nodiscard]] bool lease_result_ok(std::size_t lease,
                                       const campaign_result& r) const {
        const auto same_preset = [](const std::string& name,
                                    const waveform::standard_preset& p) {
            return name == p.name;
        };
        const auto same_fault = [](const std::string& name,
                                   bist::fault_kind f) {
            return name == bist::to_string(f);
        };
        if (lease >= ledger.lease_count() || r.grid_size != grid.size() ||
            r.trials != config.trials || r.seed != config.seed ||
            !std::equal(r.preset_names.begin(), r.preset_names.end(),
                        config.presets.begin(), config.presets.end(),
                        same_preset) ||
            !std::equal(r.fault_names.begin(), r.fault_names.end(),
                        config.faults.begin(), config.faults.end(),
                        same_fault))
            return false;
        const lease_range range = ledger.range_of(lease);
        if (r.results.size() != range.size())
            return false;
        for (std::size_t k = 0; k < range.size(); ++k)
            if (r.results[k].sc != grid[range.begin + k])
                return false;
        return true;
    }

    /// Serve every connection until ~coordinator stops the listener.
    /// Connections that arrive after the grid completed still get a
    /// `welcome` and then `done`.
    void accept_loop() {
        while (!listener.stopped()) {
            tcp_socket sock = listener.accept(/*timeout_s=*/0.0);
            if (!sock.valid())
                continue;
            const std::lock_guard<std::mutex> lock(conn_mu);
            connection& c = connections.emplace_back();
            c.sock = std::move(sock);
            try {
                c.thread = std::thread([this, &c] {
                    handle(c);
                    const std::lock_guard<std::mutex> closing(conn_mu);
                    c.sock.close();
                });
            } catch (const std::system_error&) {
                connections.pop_back(); // out of threads: hang up on it
            }
        }
    }

    void handle(connection& c) {
        tcp_socket& sock = c.sock;
        const std::uint64_t owner = next_owner.fetch_add(1) + 1;
        // Bound every recv so a silent peer cannot pin this thread (and
        // the final join) forever.
        sock.set_recv_timeout(std::max(2.0 * svc.timeout(), 2.0));
        try {
            for (;;) {
                const json_value msg = recv_message(sock);
                const std::string type = msg.at("type").as_string();

                if (type == "hello") {
                    if (msg.at("protocol_version").as_size() !=
                        static_cast<std::size_t>(protocol_version)) {
                        send_frame(sock,
                                   error_msg("protocol version mismatch"));
                        return;
                    }
                    if (msg.at("identity").as_string() != identity) {
                        send_frame(
                            sock,
                            error_msg("campaign identity mismatch: the "
                                      "worker grid flags differ from the "
                                      "coordinator's"));
                        return;
                    }
                    {
                        const std::lock_guard<std::mutex> lock(conn_mu);
                        c.welcomed = true;
                    }
                    workers_seen.fetch_add(1, std::memory_order_relaxed);
                    json_object_writer o;
                    o.string_field("type", "welcome");
                    o.size_field("protocol_version",
                                 static_cast<std::size_t>(protocol_version));
                    o.size_field("grid_size", grid.size());
                    o.size_field("lease_count", ledger.lease_count());
                    // The beat cadence is the coordinator's to dictate:
                    // its reaper times out at 3 × this, so workers must
                    // not rely on their own --heartbeat-s matching.
                    o.number_field("heartbeat_s", svc.heartbeat_s);
                    send_frame(sock, o.str());
                    continue;
                }
                if (!c.welcomed) {
                    send_frame(sock, error_msg("hello required first"));
                    return;
                }

                if (type == "request") {
                    // After `done` the worker disconnects; recv EOFs us out.
                    send_frame(sock, answer_request(owner));
                    continue;
                }

                // Out-of-range ids throw into the catch below: the
                // connection drops, re-queueing only what it held.
                const std::size_t lease = msg.at("lease").as_size();
                const std::uint64_t generation =
                    msg.at("generation").as_size();

                if (type == "heartbeat") {
                    send_frame(sock, ledger.beat(lease, generation, now_s())
                                         ? simple_msg("ok")
                                         : simple_msg("stale"));
                    continue;
                }
                if (type == "complete") {
                    campaign_result r = result_from_json(msg.at("result"));
                    if (!lease_result_ok(lease, r)) {
                        send_frame(sock, error_msg(
                                             "lease result does not match "
                                             "the granted grid slice"));
                        throw fault_injection::transient_fault(
                            "mismatched lease result");
                    }
                    if (ledger.complete(lease, generation)) {
                        {
                            const std::lock_guard<std::mutex> lock(
                                results_mu);
                            lease_results[lease] = std::move(r);
                        }
                        // Only accepted rows reach --jsonl, so the stream
                        // and the merge read the same rows.  The slot is
                        // final: the ledger accepts each lease once.
                        const run_hooks* hooks = nullptr;
                        {
                            const std::lock_guard<std::mutex> lock(conn_mu);
                            hooks = serve_hooks;
                        }
                        if (hooks && hooks->on_scenario)
                            for (const auto& row :
                                 lease_results[lease]->results)
                                hooks->on_scenario(row);
                        notify(/*finished=*/ledger.all_complete());
                        send_frame(sock, simple_msg("ok"));
                    } else {
                        send_frame(sock, simple_msg("stale"));
                    }
                    continue;
                }
                send_frame(sock, error_msg("unknown message type"));
                throw fault_injection::transient_fault(
                    "unknown service message: " + type);
            }
        } catch (const std::exception&) {
            // Expected event: the worker died (SIGKILL included), timed
            // out, or sent garbage.  Contain it — re-queue whatever it
            // held and let the remaining fleet finish the grid.
            if (ledger.requeue_owner(owner) > 0) {
                dropped.fetch_add(1, std::memory_order_relaxed);
                notify();
            }
        }
    }
};

coordinator::coordinator(campaign_config grid, service_config svc) {
    SDRBIST_EXPECTS(grid.shard.count == 1);
    SDRBIST_EXPECTS(!grid.lease);
    SDRBIST_EXPECTS(grid.journal_path.empty() && !grid.resume);
    SDRBIST_EXPECTS(svc.lease_size >= 1);
    SDRBIST_EXPECTS(svc.heartbeat_s > 0.0 &&
                    svc.heartbeat_s <= max_heartbeat_s);
    impl_ = std::make_unique<impl>(std::move(grid), svc);
}

coordinator::~coordinator() {
    impl& im = *impl_;
    // Release held requests and the reaper even if serve() threw.
    im.notify(/*finished=*/true);
    im.listener.stop();
    for (std::thread* t : {&im.reaper, &im.acceptor})
        if (t->joinable())
            t->join();
    {
        // Late connections hold no lease; wake their blocked recv.
        const std::lock_guard<std::mutex> lock(im.conn_mu);
        for (auto& c : im.connections)
            c.sock.shutdown();
    }
    for (auto& c : im.connections)
        c.thread.join();
}

std::uint16_t coordinator::port() const { return impl_->listener.port(); }

service_report coordinator::serve(const run_hooks& hooks) {
    impl& im = *impl_;
    SDRBIST_EXPECTS(!im.acceptor.joinable()); // one serve() per coordinator
    im.reaper = std::thread([&im] { im.reap(); });
    im.serve_hooks = &hooks; // no handler runs yet
    im.acceptor = std::thread([&im] { im.accept_loop(); });
    {
        std::unique_lock<std::mutex> lock(im.wake_mu);
        im.wake_cv.wait(lock, [&im] { return im.done; });
    }
    im.reaper.join();
    // Drain: welcomed handlers exit when their worker disconnects after
    // "done" (or on their bounded recv timeout).  They may still be inside
    // `hooks.on_scenario`, so join them before `hooks` goes away.  A
    // connection not welcomed by now holds no lease and never reads the
    // hooks: like a late one, it is answered until ~coordinator.
    std::list<impl::connection> served;
    {
        const std::lock_guard<std::mutex> lock(im.conn_mu);
        im.serve_hooks = nullptr;
        for (auto it = im.connections.begin(); it != im.connections.end();) {
            const auto next = std::next(it);
            if (it->welcomed)
                served.splice(served.end(), im.connections, it);
            it = next;
        }
    }
    for (auto& c : served)
        c.thread.join();

    service_report report;
    std::vector<campaign_result> pieces;
    pieces.reserve(im.lease_results.size());
    for (auto& r : im.lease_results) {
        SDRBIST_EXPECTS(r.has_value());
        pieces.push_back(std::move(*r));
    }
    report.result = merge_results(pieces);
    report.leases = im.ledger.stats();
    report.workers_seen = im.workers_seen.load(std::memory_order_relaxed);
    report.dropped_connections = im.dropped.load(std::memory_order_relaxed);
    return report;
}

} // namespace sdrbist::campaign::service
