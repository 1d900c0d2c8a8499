// Thin POSIX socket helpers for the live subsystem.
//
// Wraps the handful of calls the streaming daemon needs — TCP and Unix
// listeners, poll-with-timeout accept loops, full-buffer send — behind
// RAII fds, so the server code contains no raw socket boilerplate and
// every error surfaces as std::system_error with the failing call named.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace adscope::util {

/// Owning file descriptor; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Blocks until `fd` is readable or `timeout_ms` elapsed. Returns true
/// when readable. Throws std::system_error on poll failure.
bool wait_readable(int fd, int timeout_ms);

/// Sends the whole buffer (retrying short writes, EINTR). Returns false
/// when the peer closed the connection (EPIPE/ECONNRESET, no log noise);
/// throws on other errors.
bool send_all(int fd, std::string_view data);

/// Reads once into `out` (up to `max`). Returns bytes read, 0 on orderly
/// peer shutdown (ECONNRESET counts as closed). Throws on errors other
/// than EINTR.
std::size_t recv_some(int fd, char* out, std::size_t max);

/// Flips O_NONBLOCK. Throws std::system_error on fcntl failure.
void set_nonblocking(int fd, bool on = true);

/// One nonblocking-I/O step: `bytes` moved this call; `closed` means
/// the peer is gone (orderly shutdown or ECONNRESET) and no more I/O
/// will succeed. bytes == 0 && !closed ⇔ EAGAIN (try again when the
/// readiness loop says so). EINTR is retried internally; other errors
/// throw std::system_error.
struct IoStep {
  std::size_t bytes = 0;
  bool closed = false;
};

/// Nonblocking send of as much of `data` as the socket accepts now.
IoStep send_nb(int fd, std::string_view data);

/// Nonblocking read into `out` (up to `max`).
IoStep recv_nb(int fd, char* out, std::size_t max);

/// Disables Nagle's algorithm on a TCP socket, so a small response is
/// not held back behind an unacknowledged earlier one (a pipelining
/// client would otherwise wait for the delayed ACK). Best effort.
void set_tcp_nodelay(int fd) noexcept;

/// Listening socket — TCP loopback/any or a Unix domain path.
class ListenSocket {
 public:
  /// Binds and listens on `port` (0 picks an ephemeral port, readable
  /// via port()). `loopback_only` binds 127.0.0.1, else INADDR_ANY.
  static ListenSocket tcp(std::uint16_t port, bool loopback_only = true);

  /// Binds and listens on a Unix socket path (unlinked first).
  static ListenSocket unix_path(const std::string& path);

  ListenSocket(ListenSocket&&) = default;
  ListenSocket& operator=(ListenSocket&&) = default;

  ~ListenSocket();

  /// Waits up to `timeout_ms` for a pending connection and accepts it
  /// (EINTR retried). Returns an invalid Fd on timeout (the caller's
  /// shutdown-check window) or when the socket was shut down. Accepted
  /// TCP sockets have TCP_NODELAY set.
  Fd accept(int timeout_ms);

  /// Nonblocking accept (the listener must be set_nonblocking): returns
  /// an invalid Fd when no connection is pending. The accepted socket
  /// is itself nonblocking (and TCP_NODELAY for a TCP listener).
  /// EINTR/ECONNABORTED retried.
  Fd accept_nb();

  int fd() const noexcept { return fd_.get(); }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& path() const noexcept { return path_; }

  /// Connects to this listener (loopback TCP or the Unix path) —
  /// the client-side counterpart used by replay and the tests.
  Fd connect() const;

 private:
  ListenSocket(Fd fd, std::uint16_t port, std::string path)
      : fd_(std::move(fd)), port_(port), path_(std::move(path)) {}

  Fd fd_;
  std::uint16_t port_ = 0;
  std::string path_;  // non-empty for Unix sockets
};

/// Connects to host:port (TCP, blocking). Throws std::system_error.
Fd connect_tcp(const std::string& host, std::uint16_t port);

/// Connects to a Unix socket path. Throws std::system_error.
Fd connect_unix(const std::string& path);

}  // namespace adscope::util
