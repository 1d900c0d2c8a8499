#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace adscope::util {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

Fd make_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  return Fd(fd);
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd {};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return ready > 0;
  }
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const auto n = ::send(fd, data.data() + sent, data.size() - sent,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t recv_some(int fd, char* out, std::size_t max) {
  for (;;) {
    const auto n = ::recv(fd, out, max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return 0;  // treat like peer close
      throw_errno("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

IoStep send_nb(int fd, std::string_view data) {
  for (;;) {
    const auto n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
      if (errno == EPIPE || errno == ECONNRESET) return {0, true};
      throw_errno("send");
    }
    return {static_cast<std::size_t>(n), false};
  }
}

IoStep recv_nb(int fd, char* out, std::size_t max) {
  for (;;) {
    const auto n = ::recv(fd, out, max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
      if (errno == ECONNRESET) return {0, true};
      throw_errno("recv");
    }
    return {static_cast<std::size_t>(n), n == 0};
  }
}

void set_tcp_nodelay(int fd) noexcept {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ListenSocket ListenSocket::tcp(std::uint16_t port, bool loopback_only) {
  Fd fd = make_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = loopback_only ? htonl(INADDR_LOOPBACK) : INADDR_ANY;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) throw_errno("listen");
  // Recover the port the kernel picked for port == 0.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ListenSocket(std::move(fd), ntohs(addr.sin_port), {});
}

ListenSocket ListenSocket::unix_path(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  Fd fd = make_socket(AF_UNIX);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) throw_errno("listen");
  return ListenSocket(std::move(fd), 0, path);
}

ListenSocket::~ListenSocket() {
  if (!path_.empty() && fd_.valid()) ::unlink(path_.c_str());
}

Fd ListenSocket::accept(int timeout_ms) {
  if (!wait_readable(fd_.get(), timeout_ms)) return Fd();
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) {
      if (path_.empty()) set_tcp_nodelay(client);
      return Fd(client);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    throw_errno("accept");
  }
}

Fd ListenSocket::accept_nb() {
  for (;;) {
    const int client =
        ::accept4(fd_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client >= 0) {
      if (path_.empty()) set_tcp_nodelay(client);
      return Fd(client);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    throw_errno("accept4");
  }
}

Fd ListenSocket::connect() const {
  return path_.empty() ? connect_tcp("127.0.0.1", port_) : connect_unix(path_);
}

Fd connect_tcp(const std::string& host, std::uint16_t port) {
  Fd fd = make_socket(AF_INET);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("connect_tcp: not an IPv4 address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("connect");
  }
  return fd;
}

Fd connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  Fd fd = make_socket(AF_UNIX);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("connect");
  }
  return fd;
}

}  // namespace adscope::util
