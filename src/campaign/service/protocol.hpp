/// \file protocol.hpp
/// \brief Wire layer of the distributed campaign service: blocking TCP
///        sockets plus length-prefixed JSON framing.
///
/// The service speaks the smallest protocol that can lease grid slices to
/// workers: every message is a 4-byte big-endian payload length followed
/// by that many bytes of JSON (built with the same `json_object_writer` /
/// `parse_json` pair the exporters use — no new dependencies).  One
/// persistent connection per worker, strictly request → response, so the
/// coordinator never pushes unsolicited frames and a worker can serialise
/// its heartbeat thread and its lease loop behind one mutex.  Rows travel
/// only inside a lease's `complete` frame.
///
/// Every exchange is one small frame each way, so latency is the cost:
/// each frame leaves in a single write (header and payload together) and
/// both ends set `TCP_NODELAY`.  A header written on its own would hold
/// the payload back until the peer's delayed ACK.
///
/// Failure taxonomy (PR 7 vocabulary):
///  * A dead peer — EOF, ECONNRESET, recv timeout — raises
///    `fault_injection::transient_fault`.  Worker death is an *expected
///    event*: the coordinator contains it by re-queueing the lease.
///  * A protocol violation — oversized length prefix, unparseable JSON —
///    raises the same transient class at the connection level (the
///    coordinator drops the connection and re-queues), while handshake
///    mismatches (protocol version, campaign identity) are
///    `contract_violation`s: deterministic, never retried.
///
/// Both frame directions carry fault-injection probe sites
/// (`service.send`, `service.recv`); `service.send` also honours
/// `corrupt-bytes` clauses so CI can exercise the containment path
/// without killing processes.
///
/// POSIX only (guarded): non-unix builds get stubs that throw
/// `contract_violation`, keeping the library linkable everywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "campaign/export.hpp"

namespace sdrbist::campaign::service {

/// Handshake-checked protocol revision.  Bump it whenever the message
/// set changes, so a mixed-build fleet is rejected at `hello` instead of
/// being dropped mid-lease.
inline constexpr int protocol_version = 2;

/// Upper bound on one frame's payload.  A larger length prefix is a
/// protocol violation, not an allocation request.
inline constexpr std::uint32_t max_frame_bytes = 64u * 1024u * 1024u;

/// Move-only owner of a connected socket fd.
class tcp_socket {
public:
    tcp_socket() = default;
    explicit tcp_socket(int fd) : fd_(fd) {}
    ~tcp_socket() { close(); }
    tcp_socket(tcp_socket&& other) noexcept : fd_(other.fd_) {
        other.fd_ = -1;
    }
    tcp_socket& operator=(tcp_socket&& other) noexcept {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    tcp_socket(const tcp_socket&) = delete;
    tcp_socket& operator=(const tcp_socket&) = delete;

    [[nodiscard]] bool valid() const { return fd_ >= 0; }
    [[nodiscard]] int fd() const { return fd_; }

    /// Bound how long any single recv may block (0 = forever).  Framing
    /// surfaces an expired bound as a transient fault.
    void set_recv_timeout(double seconds);
    /// Shut both directions down: a recv blocked in another thread returns
    /// EOF.  The fd stays open until close().
    void shutdown();
    void close();

private:
    int fd_ = -1;
};

/// Blocking connect to `host:port`.  Throws `transient_fault` when the
/// coordinator is not accepting (yet) — callers retry with backoff.
tcp_socket tcp_connect(const std::string& host, std::uint16_t port);

/// Listening socket.  Binding failures are deterministic configuration
/// errors (`contract_violation`); accept timeouts are not errors.  A
/// blocked accept() waits on the listener and a self-pipe together, so
/// stop() wakes it without touching the listening fd from another thread.
class tcp_listener {
public:
    /// Bind + listen on `host:port`.  Port 0 binds an ephemeral port —
    /// read the actual one back via `port()`.
    tcp_listener(const std::string& host, std::uint16_t port);
    ~tcp_listener();
    tcp_listener(const tcp_listener&) = delete;
    tcp_listener& operator=(const tcp_listener&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Accept one connection, waiting at most `timeout_s` (0 = until a
    /// connection or stop()).  Returns an invalid socket on timeout, on a
    /// failed accept or once stopped — the caller's loop decides whether
    /// to keep waiting.
    tcp_socket accept(double timeout_s);

    /// Wake a blocked accept(); every later accept() returns at once.
    /// Safe from any thread.
    void stop();
    [[nodiscard]] bool stopped() const { return stopped_.load(); }

private:
    void close_fds();

    int fd_ = -1;
    int wake_[2] = {-1, -1}; ///< self-pipe: stop() writes, accept() polls
    std::atomic<bool> stopped_{false};
    std::uint16_t port_ = 0;
};

/// Send one frame (length prefix + payload) in one write.  Fires the
/// `service.send` probe (corrupt-bytes clauses mangle the payload before
/// framing).
/// Throws `transient_fault` when the peer is gone.
void send_frame(tcp_socket& s, std::string payload);

/// Receive one frame's payload.  Fires the `service.recv` probe.  Throws
/// `transient_fault` on EOF / reset / timeout, `contract_violation` on an
/// oversized length prefix.
std::string recv_frame(tcp_socket& s);

/// recv_frame + parse.  A payload that does not parse means the
/// connection is garbage — surfaced as `transient_fault` so the owner is
/// dropped and its leases re-queued (corruption is contained, not fatal).
json_value recv_message(tcp_socket& s);

} // namespace sdrbist::campaign::service
