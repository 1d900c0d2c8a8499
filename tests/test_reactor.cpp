// Reactor backend tests: every backend (threads, epoll, uring when the
// kernel has it) is driven through the same echo-server scenarios, so
// the event-driven backends are differentially checked against the
// thread-per-connection oracle.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "util/net_backend.h"
#include "util/reactor.h"
#include "util/socket.h"

namespace {

using namespace adscope;
using namespace std::chrono_literals;

std::vector<util::NetBackend> backends_under_test() {
  std::vector<util::NetBackend> backends = {util::NetBackend::kThreads,
                                            util::NetBackend::kEpoll};
  if (util::uring_supported()) backends.push_back(util::NetBackend::kUring);
  return backends;
}

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// Blocking-client helpers (the test side is intentionally the simplest
// possible peer).
void send_exactly(int fd, std::string_view data) {
  ASSERT_TRUE(util::send_all(fd, data));
}

std::string recv_exactly(int fd, std::size_t n) {
  std::string out;
  char buf[4096];
  while (out.size() < n) {
    const auto got =
        util::recv_some(fd, buf, std::min(sizeof buf, n - out.size()));
    if (got == 0) break;  // peer closed early — caller's assert will fail
    out.append(buf, got);
  }
  return out;
}

std::string recv_until_eof(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const auto got = util::recv_some(fd, buf, sizeof buf);
    if (got == 0) return out;
    out.append(buf, got);
  }
}

/// Echoes everything back; "Q" anywhere in a chunk answers "bye" and
/// closes (exercising the flush-queued-sends-then-close path).
class EchoHandler final : public util::Reactor::Handler {
 public:
  explicit EchoHandler(std::atomic<int>& closes) : closes_(closes) {}

  void on_open(util::Reactor::Conn& conn) override { conn.send("hello "); }

  bool on_data(util::Reactor::Conn& conn, std::string_view data) override {
    if (data.find('Q') != std::string_view::npos) {
      conn.send("bye");
      return false;
    }
    conn.send(data);
    return true;
  }

  void on_close() noexcept override {
    closes_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int>& closes_;
};

class ReactorEchoTest : public ::testing::TestWithParam<util::NetBackend> {};

TEST_P(ReactorEchoTest, EchoesGreetsAndCloses) {
  auto listener = util::ListenSocket::tcp(0);
  std::atomic<int> closes{0};
  util::Reactor::Options options;
  options.tick_ms = 20;
  auto reactor = util::Reactor::make(GetParam(), options);
  EXPECT_EQ(reactor->backend(), GetParam());
  reactor->serve(listener,
                 [&] { return std::make_unique<EchoHandler>(closes); });
  reactor->start();

  auto client = listener.connect();
  EXPECT_EQ(recv_exactly(client.get(), 6), "hello ");
  send_exactly(client.get(), "ping");
  EXPECT_EQ(recv_exactly(client.get(), 4), "ping");
  send_exactly(client.get(), "Q");
  EXPECT_EQ(recv_until_eof(client.get()), "bye");
  EXPECT_TRUE(eventually([&] { return closes.load() == 1; }));
  EXPECT_EQ(reactor->connections_accepted(), 1u);
  reactor->stop();
}

TEST_P(ReactorEchoTest, LargePayloadRoundTripsThroughSendBuffering) {
  auto listener = util::ListenSocket::tcp(0);
  std::atomic<int> closes{0};
  util::Reactor::Options options;
  options.tick_ms = 20;
  options.read_chunk_bytes = 4096;  // many chunks → many queued sends
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener,
                 [&] { return std::make_unique<EchoHandler>(closes); });
  reactor->start();

  std::string payload(2 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 23));
  }

  auto client = listener.connect();
  ASSERT_EQ(recv_exactly(client.get(), 6), "hello ");
  // Write and read concurrently: the echo doubles the in-flight bytes,
  // so a half-duplex client would deadlock against every backend.
  std::thread writer(
      [&, fd = client.get()] { util::send_all(fd, payload); });
  const auto echoed = recv_exactly(client.get(), payload.size());
  writer.join();
  ASSERT_EQ(echoed.size(), payload.size());
  EXPECT_TRUE(echoed == payload);  // EXPECT_EQ would print 2 MiB on failure

  send_exactly(client.get(), "Q");
  EXPECT_EQ(recv_until_eof(client.get()), "bye");
  reactor->stop();
  EXPECT_EQ(closes.load(), 1);
}

TEST_P(ReactorEchoTest, ConcurrentConnectionsAreIndependent) {
  auto listener = util::ListenSocket::tcp(0);
  std::atomic<int> closes{0};
  util::Reactor::Options options;
  options.tick_ms = 20;
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener,
                 [&] { return std::make_unique<EchoHandler>(closes); });
  reactor->start();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto fd = listener.connect();
      const std::string tag = "client-" + std::to_string(i);
      if (recv_exactly(fd.get(), 6) != "hello ") ++failures;
      for (int round = 0; round < 20; ++round) {
        if (!util::send_all(fd.get(), tag)) ++failures;
        if (recv_exactly(fd.get(), tag.size()) != tag) ++failures;
      }
      util::send_all(fd.get(), "Q");
      if (recv_until_eof(fd.get()) != "bye") ++failures;
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reactor->connections_accepted(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_TRUE(eventually([&] { return closes.load() == kClients; }));
  reactor->stop();
}

TEST_P(ReactorEchoTest, RejectFromOnOpenFlushesBeforeClose) {
  auto listener = util::ListenSocket::tcp(0);
  // A handler that greets with a refusal and closes straight from
  // on_open — the shape of the live servers' over-capacity path.
  class Rejecter final : public util::Reactor::Handler {
   public:
    void on_open(util::Reactor::Conn& conn) override {
      conn.send("full");
      conn.shutdown();
    }
    bool on_data(util::Reactor::Conn&, std::string_view) override {
      return false;
    }
  };
  util::Reactor::Options options;
  options.tick_ms = 20;
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener, [] { return std::make_unique<Rejecter>(); });
  reactor->start();

  auto client = listener.connect();
  EXPECT_EQ(recv_until_eof(client.get()), "full");
  reactor->stop();
}

TEST_P(ReactorEchoTest, StopClosesOpenConnections) {
  auto listener = util::ListenSocket::tcp(0);
  std::atomic<int> closes{0};
  util::Reactor::Options options;
  options.tick_ms = 20;
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener,
                 [&] { return std::make_unique<EchoHandler>(closes); });
  reactor->start();

  auto client = listener.connect();
  ASSERT_EQ(recv_exactly(client.get(), 6), "hello ");
  reactor->stop();
  EXPECT_EQ(closes.load(), 1);
  // The reactor side is gone; the client sees EOF (or a reset).
  char buf[16];
  try {
    EXPECT_EQ(util::recv_some(client.get(), buf, sizeof buf), 0u);
  } catch (const std::system_error&) {
    // ECONNRESET surfaces as closed=0 via recv_some; anything else
    // still proves the connection is dead.
  }
}

TEST_P(ReactorEchoTest, OnTickDrivesIdleTimeouts) {
  auto listener = util::ListenSocket::tcp(0);
  // Closes every connection on its third tick.
  class TickCloser final : public util::Reactor::Handler {
   public:
    explicit TickCloser(std::atomic<int>& closes) : closes_(closes) {}
    bool on_data(util::Reactor::Conn&, std::string_view) override {
      return true;
    }
    bool on_tick(util::Reactor::Conn&) override { return ++ticks_ < 3; }
    void on_close() noexcept override {
      closes_.fetch_add(1, std::memory_order_relaxed);
    }

   private:
    std::atomic<int>& closes_;
    int ticks_ = 0;
  };
  std::atomic<int> closes{0};
  std::atomic<int> reactor_ticks{0};
  util::Reactor::Options options;
  options.tick_ms = 10;
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener,
                 [&] { return std::make_unique<TickCloser>(closes); });
  reactor->set_tick([&] { reactor_ticks.fetch_add(1); });
  reactor->start();

  auto client = listener.connect();
  EXPECT_EQ(recv_until_eof(client.get()), "");  // closed by on_tick
  EXPECT_TRUE(eventually([&] { return closes.load() == 1; }));
  EXPECT_TRUE(eventually([&] { return reactor_ticks.load() >= 2; }));
  reactor->stop();
}

TEST_P(ReactorEchoTest, AcceptedTcpSocketsHaveNoDelay) {
  auto listener = util::ListenSocket::tcp(0);
  // Reports the accepted socket's TCP_NODELAY flag as its greeting.
  class NoDelayProbe final : public util::Reactor::Handler {
   public:
    void on_open(util::Reactor::Conn& conn) override {
      int value = 0;
      socklen_t size = sizeof(value);
      const bool ok = ::getsockopt(conn.fd(), IPPROTO_TCP, TCP_NODELAY,
                                   &value, &size) == 0;
      conn.send(!ok ? "err" : value != 0 ? "on " : "off");
      conn.shutdown();
    }
    bool on_data(util::Reactor::Conn&, std::string_view) override {
      return false;
    }
  };
  util::Reactor::Options options;
  options.tick_ms = 20;
  auto reactor = util::Reactor::make(GetParam(), options);
  reactor->serve(listener, [] { return std::make_unique<NoDelayProbe>(); });
  reactor->start();

  auto client = listener.connect();
  EXPECT_EQ(recv_until_eof(client.get()), "on ");
  reactor->stop();
}

std::string backend_name(
    const ::testing::TestParamInfo<util::NetBackend>& info) {
  return util::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReactorEchoTest,
                         ::testing::ValuesIn(backends_under_test()),
                         backend_name);

TEST(NetBackendTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(util::parse_net_backend("threads"), util::NetBackend::kThreads);
  EXPECT_EQ(util::parse_net_backend("epoll"), util::NetBackend::kEpoll);
  EXPECT_EQ(util::parse_net_backend("uring"), util::NetBackend::kUring);
  EXPECT_FALSE(util::parse_net_backend("auto").has_value());
  EXPECT_FALSE(util::parse_net_backend("").has_value());
  EXPECT_FALSE(util::parse_net_backend("kqueue").has_value());
  EXPECT_STREQ(util::to_string(util::NetBackend::kThreads), "threads");
  EXPECT_STREQ(util::to_string(util::NetBackend::kEpoll), "epoll");
  EXPECT_STREQ(util::to_string(util::NetBackend::kUring), "uring");
}

/// Scoped ADSCOPE_NET override (resolve_net_backend re-reads the
/// environment on every call).
class ScopedNetEnv {
 public:
  explicit ScopedNetEnv(const char* value) {
    const char* old = std::getenv("ADSCOPE_NET");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("ADSCOPE_NET", value, 1);
    } else {
      ::unsetenv("ADSCOPE_NET");
    }
  }
  ~ScopedNetEnv() {
    if (had_) {
      ::setenv("ADSCOPE_NET", saved_.c_str(), 1);
    } else {
      ::unsetenv("ADSCOPE_NET");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(NetBackendTest, EnvClampsResolutionDownward) {
  {
    ScopedNetEnv env("threads");
    std::string note;
    EXPECT_EQ(util::resolve_net_backend(std::nullopt, &note),
              util::NetBackend::kThreads);
    EXPECT_NE(note.find("ADSCOPE_NET"), std::string::npos) << note;
    // An explicit request is clamped too.
    EXPECT_EQ(util::resolve_net_backend(util::NetBackend::kEpoll),
              util::NetBackend::kThreads);
  }
  {
    ScopedNetEnv env("epoll");
    std::string note;
    EXPECT_EQ(util::resolve_net_backend(util::NetBackend::kThreads, &note),
              util::NetBackend::kThreads);  // clamp never raises
    EXPECT_TRUE(note.empty()) << note;
  }
  {
    ScopedNetEnv env(nullptr);
    std::string note;
    const auto resolved = util::resolve_net_backend(std::nullopt, &note);
    if (util::uring_supported()) {
      EXPECT_EQ(resolved, util::NetBackend::kUring);
      EXPECT_TRUE(note.empty()) << note;
    } else {
      // auto degrades below uring, with a loggable reason.
      EXPECT_LT(resolved, util::NetBackend::kUring);
      EXPECT_FALSE(note.empty());
    }
  }
}

TEST(NetBackendTest, ReactorHonorsResolvedBackend) {
  ScopedNetEnv env(nullptr);
  const auto resolved = util::resolve_net_backend(std::nullopt);
  auto reactor = util::Reactor::make(resolved);
  EXPECT_EQ(reactor->backend(), resolved);
}

}  // namespace
