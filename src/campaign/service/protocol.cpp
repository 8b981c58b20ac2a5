#include "campaign/service/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/contracts.hpp"
#include "core/fault_injection.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#define SDRBIST_HAVE_SOCKETS 1
#endif

namespace sdrbist::campaign::service {

#if defined(SDRBIST_HAVE_SOCKETS)

namespace {

using fault_injection::transient_fault;

[[noreturn]] void throw_errno(const std::string& what) {
    throw transient_fault(what + ": " + std::strerror(errno));
}

void set_timeout(int fd, int which, double seconds) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    SDRBIST_EXPECTS(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1);
    return addr;
}

/// Per-connection options for both ends: every frame is one write that
/// the peer answers, so Nagle would only hold it back for an ACK.
void configure_stream(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
#if defined(SO_NOSIGPIPE)
    ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

/// write(2) until done.  EPIPE/ECONNRESET → the peer died: transient.
void send_all(int fd, const char* data, std::size_t n) {
    while (n > 0) {
#if defined(MSG_NOSIGNAL)
        const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
#else
        const ssize_t w = ::send(fd, data, n, 0);
#endif
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw_errno("service send failed");
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
}

/// read(2) until `n` bytes arrived.  EOF mid-message and recv timeouts
/// are both "the peer stopped talking" — transient.
void recv_all(int fd, char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t r = ::recv(fd, data, n, 0);
        if (r == 0)
            throw transient_fault("service peer closed the connection");
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw transient_fault("service recv timed out");
            throw_errno("service recv failed");
        }
        data += r;
        n -= static_cast<std::size_t>(r);
    }
}

} // namespace

void tcp_socket::set_recv_timeout(double seconds) {
    SDRBIST_EXPECTS(valid());
    set_timeout(fd_, SO_RCVTIMEO, seconds);
}

void tcp_socket::shutdown() {
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void tcp_socket::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

tcp_socket tcp_connect(const std::string& host, std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw_errno("cannot create socket");
    tcp_socket sock(fd);
    configure_stream(fd);
    const sockaddr_in addr = make_addr(host, port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0)
        throw_errno("cannot connect to " + host + ":" + std::to_string(port));
    return sock;
}

tcp_listener::tcp_listener(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SDRBIST_EXPECTS(fd_ >= 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = make_addr(host, port);
    // Non-blocking, so an accept() after poll() never blocks on a
    // connection that was reset in between; the wake pipe likewise.
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd_, 16) != 0 ||
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) != 0 ||
        ::pipe(wake_) != 0 ||
        ::fcntl(wake_[1], F_SETFL, O_NONBLOCK) != 0) {
        const std::string what = std::strerror(errno);
        close_fds();
        throw contract_violation("cannot listen on " + host + ":" +
                                 std::to_string(port) + ": " + what);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    SDRBIST_EXPECTS(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                                  &len) == 0);
    port_ = ntohs(bound.sin_port);
}

tcp_listener::~tcp_listener() { close_fds(); }

void tcp_listener::close_fds() {
    for (int* fd : {&fd_, &wake_[0], &wake_[1]}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
}

tcp_socket tcp_listener::accept(double timeout_s) {
    if (stopped())
        return tcp_socket{};
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_[0], POLLIN, 0}};
    const int timeout_ms =
        timeout_s > 0.0
            ? static_cast<int>(std::min(timeout_s * 1e3 + 1.0, 2.0e9))
            : -1;
    if (::poll(fds, 2, timeout_ms) <= 0 || fds[1].revents != 0)
        return tcp_socket{}; // timeout, EINTR or stop(): caller decides
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0)
        return tcp_socket{};
    tcp_socket sock(client);
    // BSD accept() inherits the listener's O_NONBLOCK; framing blocks.
    ::fcntl(client, F_SETFL, ::fcntl(client, F_GETFL) & ~O_NONBLOCK);
    configure_stream(client);
    return sock;
}

void tcp_listener::stop() {
    if (stopped_.exchange(true))
        return;
    const char byte = 1;
    // The pipe is empty and non-blocking; the byte stays unread, so the
    // wake is latched for every later poll too.
    [[maybe_unused]] const ssize_t w = ::write(wake_[1], &byte, 1);
}

void send_frame(tcp_socket& s, std::string payload) {
    SDRBIST_EXPECTS(s.valid());
    fault_injection::fire(fault_injection::site::service_send);
    fault_injection::corrupt(fault_injection::site::service_send, payload);
    SDRBIST_EXPECTS(payload.size() <= max_frame_bytes);
    const auto n = static_cast<std::uint32_t>(payload.size());
    const char header[4] = {static_cast<char>((n >> 24) & 0xFF),
                            static_cast<char>((n >> 16) & 0xFF),
                            static_cast<char>((n >> 8) & 0xFF),
                            static_cast<char>(n & 0xFF)};
    // One write per frame: a separate 4-byte header write would leave the
    // payload waiting on the peer's delayed ACK (Nagle).
    payload.insert(0, header, 4);
    send_all(s.fd(), payload.data(), payload.size());
}

std::string recv_frame(tcp_socket& s) {
    SDRBIST_EXPECTS(s.valid());
    fault_injection::fire(fault_injection::site::service_recv);
    unsigned char header[4];
    recv_all(s.fd(), reinterpret_cast<char*>(header), 4);
    const std::uint32_t n = (std::uint32_t{header[0]} << 24) |
                            (std::uint32_t{header[1]} << 16) |
                            (std::uint32_t{header[2]} << 8) |
                            std::uint32_t{header[3]};
    if (n > max_frame_bytes)
        throw contract_violation("service frame length " + std::to_string(n) +
                                 " exceeds the protocol bound");
    std::string payload(n, '\0');
    if (n > 0)
        recv_all(s.fd(), payload.data(), n);
    return payload;
}

#else // !SDRBIST_HAVE_SOCKETS — keep the library linkable without POSIX

namespace {
[[noreturn]] void unsupported() {
    throw contract_violation(
        "the campaign service requires POSIX sockets on this platform");
}
} // namespace

void tcp_socket::set_recv_timeout(double) { unsupported(); }
void tcp_socket::shutdown() {}
void tcp_socket::close() { fd_ = -1; }
tcp_socket tcp_connect(const std::string&, std::uint16_t) { unsupported(); }
tcp_listener::tcp_listener(const std::string&, std::uint16_t) {
    unsupported();
}
tcp_listener::~tcp_listener() = default;
void tcp_listener::close_fds() {}
tcp_socket tcp_listener::accept(double) { unsupported(); }
void tcp_listener::stop() { stopped_ = true; }
void send_frame(tcp_socket&, std::string) { unsupported(); }
std::string recv_frame(tcp_socket&) { unsupported(); }

#endif

json_value recv_message(tcp_socket& s) {
    const std::string payload = recv_frame(s);
    try {
        return parse_json(payload);
    } catch (const std::exception& e) {
        // A garbled frame means the connection is untrustworthy from here
        // on; transient so the owner is dropped and its leases re-queued.
        throw fault_injection::transient_fault(
            std::string("malformed service frame: ") + e.what());
    }
}

} // namespace sdrbist::campaign::service
