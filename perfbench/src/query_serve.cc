// query-serve: `adscoped` assembled in process with its defaults
// (LiveStudy with 1 shard, StoreService fed by on_seal,
// TraceStreamServer, HttpEndpoint, auto net backend), driven over
// loopback TCP exactly as `adscope replay` and an HTTP client would.
//
// Each run builds and preloads the daemon several times (the time-sorted
// trace streamed at full speed over one connection, untimed for
// throughput), checks the final /query bodies against the offline
// reference, then one generator thread sends a seeded open-loop request
// mix at a fixed rate over 3 keep-alive connections for --seconds.
// Every 200 body and every 304 is checked.
//
// Thread budget (4 vCPUs): one generator thread + three connections.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "live/replay.h"
#include "live/stream_server.h"
#include "store/store_service.h"
#include "trace/mmap_reader.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kBucketSeconds = 300;
constexpr std::uint64_t kWindowSeconds = 86400;
/// Open-loop rate of query-serve (requests/s) and its connections.
constexpr double kServeRate = 2000;
constexpr std::size_t kServeConnections = 3;
/// HttpEndpointOptions::max_requests_per_connection default: the
/// endpoint closes a connection after this many responses, so the
/// client moves to a fresh connection at the cap.
constexpr std::size_t kRequestsPerConnection = 100;
/// Daemon builds (each preloaded) per run: setup_s is their median.
constexpr int kServeSetups = 6;
constexpr std::int64_t kWaitLimitNs = 60'000'000'000;

live::LiveStudyOptions live_options() {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.threads = 1;
  options.bucket_seconds = kBucketSeconds;
  options.window_buckets = (kWindowSeconds + kBucketSeconds - 1) / kBucketSeconds;
  return options;
}

store::StoreServiceOptions store_options(const live::LiveStudyOptions& live) {
  store::StoreServiceOptions options;
  options.tree.study = live.study;
  options.tree.bucket_seconds = live.bucket_seconds;
  options.tree.retention_buckets = live.window_buckets;
  options.cache.capacity_bytes = std::size_t{8} << 20;
  return options;
}

store::LiveStatsFn live_stats_of(const live::LiveStudy& study) {
  return [&study] {
    return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                            study.total_drops(), study.current_bucket()};
  };
}

/// Bucket seals observed through the benchmark's on_seal hook.
class SealLog {
 public:
  void record(std::uint64_t bucket, std::int64_t start_ns,
              std::int64_t end_ns) {
    {
      std::lock_guard lock(mutex_);
      sealed_.emplace_back(bucket, end_ns);
      store_ingest_ms_.push_back(static_cast<double>(end_ns - start_ns) / 1e6);
    }
    cv_.notify_all();
  }

  /// Waits until `count` seals were recorded or `deadline_ns` passes,
  /// calling `tick` about every millisecond meanwhile.
  bool wait_for(std::size_t count, std::int64_t deadline_ns,
                const std::function<void()>& tick) {
    std::unique_lock lock(mutex_);
    while (sealed_.size() < count) {
      if (now_ns() >= deadline_ns) return false;
      cv_.wait_for(lock, std::chrono::milliseconds(1),
                   [&] { return sealed_.size() >= count; });
      if (sealed_.size() < count) {
        lock.unlock();
        tick();
        lock.lock();
      }
    }
    return true;
  }

  std::vector<std::pair<std::uint64_t, std::int64_t>> sealed() const {
    std::lock_guard lock(mutex_);
    return sealed_;
  }
  std::vector<double> store_ingest_ms() const {
    std::lock_guard lock(mutex_);
    return store_ingest_ms_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, std::int64_t>> sealed_;
  std::vector<double> store_ingest_ms_;
};

/// adscoped's object graph with its defaults, listening on ephemeral
/// loopback ports. Constructing it is the daemon's set-up; the
/// destructor is its graceful shutdown.
class Daemon {
 public:
  explicit Daemon(SealLog& log)
      : store_(store_options(live_options()), &world_.ecosystem.asn_db()) {
    auto options = live_options();
    options.on_seal = [this, &log](std::uint64_t bucket, std::size_t shard,
                                   const core::TraceStudy& sealed) {
      const auto t0 = now_ns();
      store_.tree().ingest(bucket, shard, sealed);
      log.record(bucket, t0, now_ns());
    };
    study_ = std::make_unique<live::LiveStudy>(
        world_.engine, world_.ecosystem.abp_registry(), options);
    store_.set_live_stats(live_stats_of(*study_));
    ingest_ = std::make_unique<live::TraceStreamServer>(
        *study_, util::ListenSocket::tcp(0, true));
    endpoint_ = std::make_unique<live::HttpEndpoint>(
        *study_, util::ListenSocket::tcp(0, true), &world_.ecosystem.asn_db(),
        ingest_.get(), &store_);
    ingest_->start();
    endpoint_->start();
  }

  ~Daemon() {
    endpoint_->stop();
    ingest_->stop();
    study_->close();
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const World& world() const { return world_; }
  store::StoreService& store() { return store_; }
  live::LiveStudy& study() { return *study_; }
  live::TraceStreamServer& ingest() { return *ingest_; }
  live::HttpEndpoint& endpoint() { return *endpoint_; }

 private:
  World world_;
  store::StoreService store_;
  std::unique_ptr<live::LiveStudy> study_;
  std::unique_ptr<live::TraceStreamServer> ingest_;
  std::unique_ptr<live::HttpEndpoint> endpoint_;
};

// -- ingest stream ------------------------------------------------------

/// Per distinct bucket of the sorted trace (ascending), the wire offset
/// of the first byte that lets the daemon seal it: the first record of
/// bucket >= B + 2 (LiveStudyOptions::seal_lag_buckets = 1 keeps one
/// bucket below the watermark open), else the end marker.
struct SealPlan {
  std::vector<std::uint64_t> buckets;
  std::vector<std::size_t> trigger_offset;
};

SealPlan plan_seals(const Inputs& inputs) {
  class Collect final : public trace::MmapTraceReader::RawSink {
   public:
    explicit Collect(const char* base) : base_(base) {}
    void on_raw(const trace::MmapTraceReader::RawRecord& record) override {
      if (record.tag == trace::RecordTag::kEnd) return;
      records.emplace_back(
          static_cast<std::size_t>(record.bytes.data() - base_),
          record.timestamp_ms / 1000 / kBucketSeconds);
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> records;

   private:
    const char* base_;
  };
  trace::MmapTraceReader reader(inputs.sorted_path);
  Collect collect(reader.header_bytes().data());
  reader.replay_raw(collect);

  SealPlan plan;
  for (const auto& [offset, bucket] : collect.records) {
    if (plan.buckets.empty() || plan.buckets.back() != bucket) {
      plan.buckets.push_back(bucket);
    }
  }
  std::size_t next = 0;
  for (const auto bucket : plan.buckets) {
    while (next < collect.records.size() &&
           collect.records[next].second < bucket + 2) {
      ++next;
    }
    plan.trigger_offset.push_back(next < collect.records.size()
                                      ? collect.records[next].first
                                      : inputs.wire_bytes - 1);
  }
  return plan;
}

struct SendResult {
  bool ok = false;
  std::string error;
  std::int64_t first_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t blocked_ns = 0;  // waiting for socket space (backpressure)
};

/// Streams `bytes` over one TCP connection as fast as the daemon takes
/// them.
void send_stream(std::uint16_t port, std::string_view bytes, SendResult& out) {
  try {
    util::Fd fd = util::connect_tcp("127.0.0.1", port);
    util::set_nonblocking(fd.get());
    constexpr std::size_t kChunk = 64 * 1024;
    std::size_t pos = 0;
    out.first_ns = now_ns();
    while (pos < bytes.size()) {
      const auto n = ::send(fd.get(), bytes.data() + pos,
                            std::min(kChunk, bytes.size() - pos), MSG_NOSIGNAL);
      if (n > 0) {
        pos += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const auto t0 = now_ns();
        pollfd pfd{fd.get(), POLLOUT, 0};
        if (::poll(&pfd, 1, 10'000) <= 0) {
          out.error = "ingest send stalled";
          return;
        }
        out.blocked_ns += now_ns() - t0;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        out.error = "ingest connection closed by the daemon";
        return;
      }
    }
    out.done_ns = now_ns();
    out.ok = true;
  } catch (const std::exception& error) {
    out.error = error.what();
  }
}

// -- HTTP clients -------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Parses one response at the front of `in`; returns the bytes it
/// spans, or 0 when it is incomplete.
std::size_t parse_reply(std::string_view in, HttpReply& reply) {
  const auto header_end = in.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return 0;
  const auto headers = in.substr(0, header_end + 2);
  const auto header = [&](std::string_view name) -> std::string_view {
    const auto at = headers.find(name);
    if (at == std::string_view::npos) return {};
    const auto start = at + name.size();
    return headers.substr(start, headers.find("\r\n", start) - start);
  };
  const auto length = static_cast<std::size_t>(
      std::strtoull(std::string(header("\r\nContent-Length: ")).c_str(),
                    nullptr, 10));
  const auto total = header_end + 4 + length;
  if (in.size() < total) return 0;
  reply.status = in.size() > 12 ? std::atoi(std::string(in.substr(9, 3)).c_str())
                                : 0;
  reply.body.assign(in.substr(header_end + 4, length));
  return total;
}

std::string request_bytes(const std::string& target,
                          const std::string& if_none_match, bool close) {
  std::string out = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!if_none_match.empty()) out += "If-None-Match: " + if_none_match + "\r\n";
  if (close) out += "Connection: close\r\n";
  out += "\r\n";
  return out;
}

/// One blocking GET on a fresh connection.
HttpReply http_get(std::uint16_t port, const std::string& target) {
  HttpReply reply;
  util::Fd fd = util::connect_tcp("127.0.0.1", port);
  if (!util::send_all(fd.get(), request_bytes(target, "", true))) return reply;
  std::string in;
  char buf[64 * 1024];
  for (;;) {
    const auto n = util::recv_some(fd.get(), buf, sizeof buf);
    if (n == 0) break;
    in.append(buf, n);
  }
  parse_reply(in, reply);
  return reply;
}

/// One request of an open-loop plan with what its response must be.
struct Planned {
  std::string target;
  std::string if_none_match;
  int expect_status = 200;
  const std::string* expect_body = nullptr;  // checked when non-null
};

struct ClientStats {
  std::vector<double> latency_ms;  // from each request's scheduled time
  std::vector<double> late_ms;     // send time - scheduled time
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // non-2xx/304, timeouts, refused/closed
  std::uint64_t not_modified = 0;
  std::uint64_t mismatched = 0;  // body or status other than expected
  std::int64_t last_ns = 0;
  double cpu_s = 0;
};

/// Open-loop HTTP/1.1 keep-alive client on one thread: request k of the
/// plan (cycled) is due at start + k / rate, whether or not earlier
/// responses arrived, and goes out on the next idle connection — one
/// request in flight per connection, as HTTP/1.1 clients do. (Pipelined,
/// each response would wait on the daemon's Nagle until the next request
/// carried the ACK.) Latency is measured from the due time, so a stall
/// counts against every request scheduled behind it.
class OpenLoopClient {
 public:
  OpenLoopClient(std::uint16_t port, std::size_t connections, double rate,
                 const std::vector<Planned>& plan)
      : port_(port), conns_(connections), period_ns_(1e9 / rate), plan_(plan) {}

  ~OpenLoopClient() {
    for (auto& conn : conns_) close_conn(conn);
    for (auto& conn : draining_) close_conn(conn);
  }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Sends until `end_ns`, then waits up to 5 s for outstanding
  /// responses (the rest count as timeouts).
  void run(std::int64_t start_ns, std::int64_t end_ns) {
    const double cpu0 = thread_cpu_s();
    std::uint64_t k = 0;
    bool sending = true;
    std::int64_t stopped_ns = 0;
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (;;) {
      auto now = now_ns();
      if (sending && now >= end_ns) {
        sending = false;
        stopped_ns = now;
      }
      std::int64_t next_due = 0;
      while (sending) {
        next_due = start_ns + static_cast<std::int64_t>(
                                  static_cast<double>(k) * period_ns_);
        if (next_due > now) break;
        backlog_.push_back({next_due, static_cast<std::size_t>(k % plan_.size())});
        stats.late_ms.push_back(static_cast<double>(now - next_due) / 1e6);
        ++stats.sent;
        ++k;
      }
      dispatch();
      const auto waiting = outstanding();
      if (!sending && waiting == 0) break;
      if (!sending && now - stopped_ns > 5'000'000'000) {
        stats.failed += waiting;  // timed out
        break;
      }
      fds.clear();
      owners.clear();
      for (auto* list : {&conns_, &draining_}) {
        for (auto& conn : *list) {
          if (conn.fd >= 0) {
            fds.push_back({conn.fd, POLLIN, 0});
            owners.push_back(&conn);
          }
        }
      }
      const std::int64_t wait_ns =
          sending ? std::max<std::int64_t>(0, next_due - now) : 5'000'000;
      timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                       static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents != 0) read_replies(*owners[i]);
        }
        dispatch();
      }
      std::erase_if(draining_, [](const Conn& conn) { return conn.fd < 0; });
      for (auto& conn : draining_) {
        if (conn.pending.empty()) close_conn(conn);
      }
    }
    stats.cpu_s = thread_cpu_s() - cpu0;
  }

  ClientStats stats;

 private:
  struct Pending {
    std::int64_t due_ns = 0;
    std::size_t index = 0;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::deque<Pending> pending;
    std::size_t sent = 0;
  };

  std::uint64_t outstanding() const {
    std::uint64_t total = backlog_.size();
    for (const auto* list : {&conns_, &draining_}) {
      for (const auto& conn : *list) total += conn.pending.size();
    }
    return total;
  }

  void close_conn(Conn& conn) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    stats.failed += conn.pending.size();
    conn.pending.clear();
  }

  /// Sends due requests while a connection is idle.
  void dispatch() {
    while (!backlog_.empty()) {
      Conn* idle = nullptr;
      for (std::size_t i = 0; i < conns_.size() && idle == nullptr; ++i) {
        Conn& conn = conns_[(next_conn_ + i) % conns_.size()];
        if (conn.pending.empty()) {
          idle = &conn;
          next_conn_ = (next_conn_ + i + 1) % conns_.size();
        }
      }
      if (idle == nullptr) return;
      const Pending request = backlog_.front();
      backlog_.pop_front();
      send_on(*idle, request);
    }
  }

  void send_on(Conn& conn, const Pending& request) {
    if (conn.fd < 0) {
      try {
        conn = Conn{};
        conn.fd = util::connect_tcp("127.0.0.1", port_).release();
        util::set_nonblocking(conn.fd);
        const int on = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
      } catch (const std::exception&) {
        ++stats.failed;
        return;
      }
    }
    const auto& planned = plan_[request.index];
    if (!send_nb_all(conn.fd, request_bytes(planned.target,
                                            planned.if_none_match, false))) {
      ++stats.failed;
      close_conn(conn);
      return;
    }
    conn.pending.push_back(request);
    if (++conn.sent >= kRequestsPerConnection) {
      draining_.push_back(std::move(conn));
      conn = Conn{};
    }
  }

  static bool send_nb_all(int fd, std::string_view data) {
    while (!data.empty()) {
      const auto n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (n > 0) {
        data.remove_prefix(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, 1000) <= 0) return false;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  void read_replies(Conn& conn) {
    char buf[64 * 1024];
    bool closed = false;
    for (;;) {
      const auto n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
      break;
    }
    const auto now = now_ns();
    std::size_t used = 0;
    while (!conn.pending.empty()) {
      const auto size = parse_reply(std::string_view(conn.in).substr(used),
                                    reply_);
      if (size == 0) break;
      used += size;
      complete(conn.pending.front(), now);
      conn.pending.pop_front();
    }
    conn.in.erase(0, used);
    if (closed) close_conn(conn);
  }

  void complete(const Pending& pending, std::int64_t now) {
    const auto& planned = plan_[pending.index];
    ++stats.completed;
    stats.last_ns = now;
    stats.latency_ms.push_back(static_cast<double>(now - pending.due_ns) / 1e6);
    const int status = reply_.status;
    if (status == 304) ++stats.not_modified;
    if (!((status >= 200 && status < 300) || status == 304)) ++stats.failed;
    if (status != planned.expect_status ||
        (status == 200 && planned.expect_body != nullptr &&
         reply_.body != *planned.expect_body)) {
      if (++stats.mismatched <= 3) {
        std::fprintf(stderr,
                     "perfbench: %s%s answered %d (%zu bytes), expected %d\n",
                     planned.target.c_str(),
                     planned.if_none_match.empty() ? "" : " (revalidation)",
                     status, reply_.body.size(), planned.expect_status);
      }
    }
  }

  std::uint16_t port_;
  std::vector<Conn> conns_;
  std::vector<Conn> draining_;  // at the request cap, awaiting replies
  std::deque<Pending> backlog_;  // due, waiting for an idle connection
  std::size_t next_conn_ = 0;
  double period_ns_;
  const std::vector<Planned>& plan_;
  HttpReply reply_;
};

// -- reference ------------------------------------------------------------

/// Final /query bodies of the offline `adscope query` path: the trace
/// replayed in time order into an in-process LiveStudy feeding a
/// StoreService.
std::map<std::string, store::StoreService::Response> reference_bodies(
    const Inputs& inputs, const std::vector<std::string>& targets) {
  const World world;
  auto options = live_options();
  store::StoreService store(store_options(options), &world.ecosystem.asn_db());
  options.on_seal = [&store](std::uint64_t bucket, std::size_t shard,
                             const core::TraceStudy& sealed) {
    store.tree().ingest(bucket, shard, sealed);
  };
  live::LiveStudy study(world.engine, world.ecosystem.abp_registry(), options);
  {
    trace::MemoryTrace buffered;
    trace::MmapTraceReader reader(inputs.trace_path);
    reader.replay(buffered);
    live::sort_by_time(buffered);
    live::replay_time_ordered(buffered, study);
  }
  study.seal_all();
  study.flush();
  store.set_live_stats(live_stats_of(study));
  std::map<std::string, store::StoreService::Response> bodies;
  for (const auto& target : targets) bodies[target] = store.query(target);
  study.close();
  return bodies;
}

const std::vector<std::string>& check_targets() {
  static const std::vector<std::string> targets = {
      "/query/summary/*", "/query/traffic/*", "/query/users/*",
      "/query/infra/*",   "/query/buckets",
  };
  return targets;
}

/// Final-state check over the wire: every check target's body equals the
/// reference, and /study/summary equals /query/summary/*.
bool final_bodies_match(
    std::uint16_t port,
    const std::map<std::string, store::StoreService::Response>& expected,
    std::uint64_t& requests) {
  bool ok = true;
  for (const auto& target : check_targets()) {
    const auto reply = http_get(port, target);
    ++requests;
    if (reply.status != 200 || reply.body != expected.at(target).body) {
      ok = false;
    }
  }
  const auto summary = http_get(port, "/study/summary");
  ++requests;
  if (summary.status != 200 ||
      summary.body != expected.at("/query/summary/*").body) {
    ok = false;
  }
  return ok;
}

/// (time, ingest bytes the daemon has read) samples.
using Receipts = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Waits for every planned bucket seal and the end-of-stream flush,
/// sampling TraceStreamServer::bytes_received every millisecond and
/// calling `tick` (when set) alongside.
bool wait_ingested(Daemon& daemon, SealLog& log, std::size_t buckets,
                   Receipts& receipts, const std::function<void()>& tick) {
  const auto deadline = now_ns() + kWaitLimitNs;
  const auto sample = [&] {
    receipts.emplace_back(now_ns(), daemon.ingest().bytes_received());
    if (tick) tick();
  };
  if (!log.wait_for(buckets, deadline, sample)) return false;
  while (daemon.ingest().streams_completed() == 0) {
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Per planned bucket, when the daemon had read its seal trigger (first
/// receipt sample past the trigger offset; 0 = never).
std::vector<std::int64_t> receipt_times(const SealPlan& plan,
                                        const Receipts& receipts) {
  std::vector<std::int64_t> times;
  std::size_t next = 0;
  for (const auto offset : plan.trigger_offset) {
    while (next < receipts.size() && receipts[next].second <= offset) ++next;
    times.push_back(next < receipts.size() ? receipts[next].first : 0);
  }
  return times;
}

/// Milliseconds from each bucket's trigger time to its seal.
std::vector<double> seal_lags_ms(const SealPlan& plan, const SealLog& log,
                                 const std::vector<std::int64_t>& trigger_ns) {
  std::map<std::uint64_t, std::int64_t> sealed_at;
  for (const auto& [bucket, at] : log.sealed()) sealed_at.emplace(bucket, at);
  std::vector<double> lags;
  for (std::size_t i = 0; i < plan.buckets.size(); ++i) {
    const auto it = sealed_at.find(plan.buckets[i]);
    if (it == sealed_at.end() || trigger_ns[i] == 0) continue;
    lags.push_back(static_cast<double>(it->second - trigger_ns[i]) / 1e6);
  }
  return lags;
}

std::string read_wire(const Inputs& inputs) {
  std::ifstream in(inputs.sorted_path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

// -- query-serve ------------------------------------------------------------

namespace {

/// The seeded request mix: 45% repeated /query targets, 30%
/// If-None-Match revalidations of them, 20% window_s/fields/top
/// variants, 5% /metrics, and one /study/summary per 8192 requests.
/// Targets the reference does not answer 200 are left out.
std::vector<Planned> serve_plan(
    std::uint64_t seed,
    const std::map<std::string, store::StoreService::Response>& expected) {
  static const std::vector<std::string> repeated = {
      "/query/summary/*", "/query/traffic/*", "/query/users/*",
      "/query/infra/*",   "/query/summary/latest", "/query/buckets",
  };
  static const std::vector<std::string> variants = {
      "/query/traffic/*?window_s=3600", "/query/summary/*?window_s=7200",
      "/query/users/*?window_s=1800",   "/query/infra/*?top=5",
      "/query/infra/*?top=25&fields=trace,top_ases",
  };
  const auto ok = [&](const std::string& target) {
    const auto it = expected.find(target);
    return it != expected.end() && it->second.status == 200;
  };
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Planned> plan;
  constexpr std::size_t kPlanSize = 8192;
  while (plan.size() < kPlanSize) {
    const double draw = unit(rng);
    const auto pick = [&](const std::vector<std::string>& from) {
      return from[static_cast<std::size_t>(rng() % from.size())];
    };
    if (draw < 0.45) {
      const auto target = pick(repeated);
      if (ok(target)) {
        plan.push_back({target, "", 200, &expected.at(target).body});
      }
    } else if (draw < 0.75) {
      const auto target = pick(repeated);
      if (ok(target) && !expected.at(target).etag.empty()) {
        plan.push_back({target, expected.at(target).etag, 304, nullptr});
      }
    } else if (draw < 0.95) {
      const auto target = pick(variants);
      if (ok(target)) {
        plan.push_back({target, "", 200, &expected.at(target).body});
      }
    } else {
      plan.push_back({"/metrics", "", 200, nullptr});
    }
  }
  // /study/summary renders a LiveStudy snapshot on the reactor thread
  // (about 8 ms) and delays the ~10 requests queued behind it; one per
  // plan keeps those delays near 0.15% of requests, so p99 measures the
  // cache and HTTP path.
  plan[static_cast<std::size_t>(rng() % plan.size())] = {
      "/study/summary", "", 200, &expected.at("/query/summary/*").body};
  return plan;
}

struct Preload {
  bool ok = false;
  /// First byte sent -> every bucket sealed and flushed: how long until
  /// a freshly streamed trace is fully queryable.
  double ingest_ms = 0;
  double block_ratio = 0;  // share of send time blocked by backpressure
  std::vector<double> seal_lag_ms;
  std::vector<double> queue_depth;
};

/// Streams the time-sorted trace into `daemon` at full speed and waits
/// until the end-of-stream marker has sealed and flushed everything.
Preload preload(Daemon& daemon, SealLog& log, const std::string& wire,
                const SealPlan& plan, bool sample_queue) {
  Preload out;
  SendResult sent;
  std::thread sender([&] {
    send_stream(daemon.ingest().port(), wire, sent);
  });
  std::function<void()> tick;
  if (sample_queue) {
    tick = [&] {
      out.queue_depth.push_back(
          static_cast<double>(daemon.study().queue_depth()));
    };
  }
  Receipts receipts;
  out.ok = wait_ingested(daemon, log, plan.buckets.size(), receipts, tick);
  const auto done_ns = now_ns();
  sender.join();
  out.ok = out.ok && sent.ok;
  out.ingest_ms = static_cast<double>(done_ns - sent.first_ns) / 1e6;
  out.seal_lag_ms = seal_lags_ms(plan, log, receipt_times(plan, receipts));
  if (sent.done_ns > sent.first_ns) {
    out.block_ratio = static_cast<double>(sent.blocked_ns) /
                      static_cast<double>(sent.done_ns - sent.first_ns);
  }
  return out;
}

struct ServePhase {
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  double cache_hit_ratio = 0;
  ClientStats client;
};

ServePhase serve_phase(Daemon& daemon, const std::vector<Planned>& plan,
                       double seconds) {
  ServePhase phase;
  reset_peak_rss();
  const auto cache0 = daemon.store().cache_counters();
  OpenLoopClient client(daemon.endpoint().port(), kServeConnections,
                        kServeRate, plan);
  const auto cpu0 = process_cpu_s();
  const auto t0 = now_ns();
  std::thread generator([&] {
    client.run(t0, t0 + static_cast<std::int64_t>(seconds * 1e9));
  });
  generator.join();
  phase.cpu_s = process_cpu_s() - cpu0 - client.stats.cpu_s;
  phase.rss_mb = peak_rss_mb();
  phase.wall_s = static_cast<double>(client.stats.last_ns - t0) / 1e9;
  const auto cache1 = daemon.store().cache_counters();
  const auto hits = static_cast<double>(cache1.hits - cache0.hits);
  const auto lookups =
      hits + static_cast<double>(cache1.misses - cache0.misses);
  phase.cache_hit_ratio = lookups > 0 ? hits / lookups : 0;
  phase.client = std::move(client.stats);

  return phase;
}

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

}  // namespace

void run_query_serve(const Args& args, const Inputs& inputs, Tracer& tracer,
                     Result& result) {
  const auto wire = read_wire(inputs);
  const auto seal_plan = plan_seals(inputs);
  std::vector<std::string> targets = check_targets();
  for (const auto& target :
       {"/query/summary/latest", "/query/traffic/*?window_s=3600",
        "/query/summary/*?window_s=7200", "/query/users/*?window_s=1800",
        "/query/infra/*?top=5", "/query/infra/*?top=25&fields=trace,top_ases"}) {
    targets.emplace_back(target);
  }
  const auto expected = reference_bodies(inputs, targets);
  const auto plan = serve_plan(args.seed, expected);

  // Set-up and preload, repeated: setup_s is the median build, and
  // result_lag_ms the fastest preload (interference only slows one).
  // The last daemon serves.
  std::vector<double> setups;
  std::vector<double> world_ms;
  std::vector<double> engine_ms;
  std::vector<double> ingest_ms;
  std::vector<double> block_ratio;
  std::vector<double> seal_lag_ms;
  std::vector<double> queue_depth;
  std::unique_ptr<SealLog> log;
  std::unique_ptr<Daemon> daemon;
  std::uint64_t check_requests = 0;
  for (int i = 0; i < kServeSetups; ++i) {
    daemon.reset();
    log = std::make_unique<SealLog>();
    const auto s0 = now_ns();
    daemon = std::make_unique<Daemon>(*log);
    setups.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    world_ms.push_back(daemon->world().build_ms());
    engine_ms.push_back(daemon->world().engine_ms());

    const auto loaded = preload(*daemon, *log, wire, seal_plan, args.trace);
    result.attempted += inputs.records();
    if (!loaded.ok) result.fail_check("preload did not seal every bucket");
    if (!final_bodies_match(daemon->endpoint().port(), expected,
                            check_requests)) {
      result.fail_check("preloaded /query bodies differ from the reference");
    }
    ingest_ms.push_back(loaded.ingest_ms);
    block_ratio.push_back(loaded.block_ratio);
    append(seal_lag_ms, loaded.seal_lag_ms);
    append(queue_depth, loaded.queue_depth);
  }

  const auto record_phase = [&](const ServePhase& phase) {
    result.attempted += phase.client.sent;
    result.failed += phase.client.failed;
    if (phase.client.mismatched > 0) {
      result.fail_check("a response differs from the reference (" +
                        std::to_string(phase.client.mismatched) + " of " +
                        std::to_string(phase.client.completed) + ")");
    }
  };
  const auto throughput = [](const ServePhase& phase) {
    return static_cast<double>(phase.client.completed) / phase.wall_s;
  };

  if (!args.trace) {
    const auto phase = serve_phase(*daemon, plan, args.seconds);
    record_phase(phase);
    if (!final_bodies_match(daemon->endpoint().port(), expected,
                            check_requests)) {
      result.fail_check("/query bodies changed while serving");
    }
    result.attempted += check_requests;
    result.failed += daemon->study().total_drops() +
                     daemon->endpoint().connections_rejected();
    const auto& latency = phase.client.latency_ms;
    result.set("setup_s", median(setups), "s");
    result.set("throughput_rps", throughput(phase), "1/s");
    result.set("cpu_us_per_op",
               phase.cpu_s * 1e6 / static_cast<double>(phase.client.completed),
               "us");
    result.set("peak_rss_mb", phase.rss_mb, "MB");
    result.set("latency_ms", quantile(latency, 0.5), "ms");
    // p90, not p99: on a shared host the top percent is the host
    // descheduling the daemon's threads for milliseconds at a time.
    result.set("latency_tail_ms", quantile(latency, 0.9), "ms");
    result.set("result_lag_ms", min_of(ingest_ms), "ms");
    info("query_p50_ms=%.4f query_p90_ms=%.4f query_p99_ms=%.4f over %zu "
         "responses at %.0f req/s offered (latency_ms, latency_tail_ms)",
         quantile(latency, 0.5), quantile(latency, 0.9),
         quantile(latency, 0.99), latency.size(), kServeRate);
    info("preload: first byte -> sealed and flushed %.1f ms, best of %zu "
         "(result_lag_ms); seal_lag_p50_ms=%.3f over %zu bucket seals",
         min_of(ingest_ms), ingest_ms.size(), quantile(seal_lag_ms, 0.5),
         seal_lag_ms.size());
    return;
  }

  // Traced run: an untraced half and a traced half of the serving time;
  // afterwards, direct StoreService::query and HttpEndpoint::handle
  // calls over the same mix.
  const auto plain = serve_phase(*daemon, plan, args.seconds / 2);
  record_phase(plain);
  const auto run = tracer.new_run();
  const auto pass_t0 = now_ns();
  ServePhase traced;
  {
    ScopedSpan span(tracer, "http.serve_phase");
    traced = serve_phase(*daemon, plan, args.seconds / 2);
  }
  record_phase(traced);
  const auto unattributed =
      1.0 - static_cast<double>(tracer.top_level_busy_ns(run)) /
                static_cast<double>(now_ns() - pass_t0);

  std::vector<double> store_query_ms;
  std::vector<double> handle_us;
  {
    ScopedSpan span(tracer, "store.query.direct");
    for (const auto& planned : plan) {
      if (planned.target.rfind("/query/", 0) != 0) continue;
      const auto t0 = now_ns();
      daemon->store().query(planned.target);
      store_query_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  {
    ScopedSpan span(tracer, "http.handle.direct");
    std::map<std::string, std::vector<double>> by_route;
    for (const auto& planned : plan) {
      const auto t0 = now_ns();
      daemon->endpoint().handle("GET", planned.target, planned.if_none_match);
      handle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      by_route[planned.target.substr(0, planned.target.find('?')) +
               (planned.if_none_match.empty() ? "" : " (revalidation)")]
          .push_back(handle_us.back());
    }
    for (const auto& [route, samples] : by_route) {
      info("handle %s: p50 %.1f us over %zu calls", route.c_str(),
           quantile(samples, 0.5), samples.size());
    }
  }

  report_world_builds(world_ms, engine_ms, result);
  result.set("live.ingest_block_ratio", median(block_ratio), "ratio");
  result.set("live.queue_depth_p50", quantile(queue_depth, 0.5), "records");
  result.set("live.store_ingest_ms_p50", quantile(log->store_ingest_ms(), 0.5),
             "ms");
  result.set("live.buckets_sealed",
             static_cast<double>(daemon->study().buckets_sealed()), "count");
  result.set("live.records_dropped",
             static_cast<double>(daemon->study().total_drops()), "count");
  result.set("store.query_ms_p50", quantile(store_query_ms, 0.5), "ms");
  result.set("store.cache_hit_ratio", traced.cache_hit_ratio, "ratio");
  const double handle_p50 = quantile(handle_us, 0.5);
  result.set("http.handle_us_p50", handle_p50, "us");
  result.set("http.wire_overhead_us_p50",
             quantile(traced.client.latency_ms, 0.5) * 1e3 - handle_p50, "us");
  result.set("http.not_modified_ratio",
             static_cast<double>(traced.client.not_modified) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, traced.client.completed)),
             "ratio");
  result.set("http.connections_rejected",
             static_cast<double>(daemon->endpoint().connections_rejected()),
             "count");
  std::vector<double> late = plain.client.late_ms;
  append(late, traced.client.late_ms);
  result.set("bench.gen_late_ms_p99", quantile(late, 0.99), "ms");
  result.set("bench.unattributed_ratio", unattributed, "ratio");
  result.set("bench.trace_overhead_ratio", throughput(traced) / throughput(plain),
             "ratio");
  run_layer_suite(inputs, tracer, result);
}

}  // namespace perfbench
