// Micro-benchmark: network backends — ingest fan-in and HTTP serving
// throughput for the threads/epoll/uring reactors.
//
// A harness binary (the subjects are sockets + threads, not a tight
// loop): for each available backend it streams a pre-encoded trace over
// N concurrent connections (records/s) and ping-pongs keep-alive
// /healthz requests from N clients (req/s), then records everything
// through JsonMetrics (`ADSCOPE_JSON_DIR=... -> BENCH_net.json`).
//
// The ingest wire is partitioned by subscriber, sent in ~1 KiB chunks
// with no end-of-stream marker — the shape of real vantage-point
// feeds — so the socket layer, not the encoder, is what saturates.
// The headline metric is ingest_speedup_c64: the best event-driven
// backend over the thread-per-connection oracle at 64 connections.
//
// The study's shard queues are sized to hold the whole trace and the
// filter catalog is kept small: with the classifier decoupled, the
// measured rate is the socket + decode layer, not the analysis drain
// (which is bench_micro_live_ingest's subject).
//
//   ADSCOPE_NET_HOUSEHOLDS  trace scale            (default 300)
//   ADSCOPE_NET_PUBLISHERS  catalog size           (default 400)
//   ADSCOPE_HOURS           trace duration         (default 2)
//   ADSCOPE_NET_FANINS      connection sweep       (default 1,8,64,256)
//   ADSCOPE_NET_HTTP_MS     HTTP measure window    (default 500)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiment_common.h"
#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "live/replay.h"
#include "live/stream_server.h"
#include "trace/writer.h"
#include "util/net_backend.h"
#include "util/socket.h"

namespace {

using namespace adscope;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_fanins(const char* text) {
  std::vector<std::size_t> fanins;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto value = std::strtoull(item.c_str(), nullptr, 10);
    if (value > 0) fanins.push_back(static_cast<std::size_t>(value));
  }
  return fanins;
}

/// The wire bytes for one connection: meta + the records of the
/// subscribers hashed onto it, time order preserved.
std::vector<std::string> partition_wire(const trace::MemoryTrace& sorted,
                                        std::size_t connections) {
  std::vector<std::ostringstream> outs(connections);
  std::vector<std::unique_ptr<trace::TraceEncoder>> encoders;
  encoders.reserve(connections);
  for (auto& out : outs) {
    encoders.push_back(std::make_unique<trace::TraceEncoder>(out));
    encoders.back()->on_meta(sorted.meta());
  }
  for (const auto& txn : sorted.http()) {
    encoders[txn.client_ip % connections]->on_http(txn);
  }
  for (const auto& flow : sorted.tls()) {
    encoders[flow.client_ip % connections]->on_tls(flow);
  }
  std::vector<std::string> wires;
  wires.reserve(connections);
  for (auto& out : outs) wires.push_back(out.str());
  return wires;
}

void stream_in_chunks(int fd, std::string_view wire) {
  while (!wire.empty()) {
    const auto chunk = wire.substr(0, 1024);
    if (!util::send_all(fd, chunk)) return;
    wire.remove_prefix(chunk.size());
  }
}

std::vector<util::NetBackend> available_backends() {
  std::vector<util::NetBackend> backends = {util::NetBackend::kThreads,
                                            util::NetBackend::kEpoll};
  if (util::uring_supported()) backends.push_back(util::NetBackend::kUring);
  return backends;
}

}  // namespace

int main() {
  // Stage-by-stage progress even when stdout is a pipe.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  bench::preamble(
      "micro: net backends (ingest fan-in, HTTP serving)",
      "n/a — socket-layer throughput of the adscoped daemon");

  sim::EcosystemOptions eco_options;
  eco_options.publishers = static_cast<std::size_t>(
      bench::env_u64("ADSCOPE_NET_PUBLISHERS", 400));
  const bench::World world(bench::env_u64("ADSCOPE_SEED", 42), eco_options);
  const auto households = static_cast<std::uint32_t>(
      bench::env_u64("ADSCOPE_NET_HOUSEHOLDS", 300));
  const auto hours = bench::env_u64("ADSCOPE_HOURS", 2);
  const auto fanins = parse_fanins(
      std::getenv("ADSCOPE_NET_FANINS") != nullptr
          ? std::getenv("ADSCOPE_NET_FANINS")
          : "1,8,64,256");
  const auto http_ms = bench::env_u64("ADSCOPE_NET_HTTP_MS", 500);

  trace::MemoryTrace memory;
  {
    sim::RbnSimulator simulator(world.ecosystem, world.lists, world.seed);
    auto options = sim::rbn2_options(households);
    options.duration_s = hours * 3600;
    simulator.simulate(options, memory);
    live::sort_by_time(memory);
  }
  const std::uint64_t records = memory.http().size() + memory.tls().size();
  std::printf("trace: %llu records (%u households, %llu h)\n",
              static_cast<unsigned long long>(records), households,
              static_cast<unsigned long long>(hours));

  bench::JsonMetrics metrics("net");
  metrics.record("records", static_cast<double>(records));
  metrics.record("uring_supported", util::uring_supported() ? 1 : 0);

  const auto backends = available_backends();
  double threads_c64 = 0.0;
  double best_event_c64 = 0.0;

  // -- ingest fan-in sweep ---------------------------------------------
  std::printf("\n%-8s %8s %14s\n", "backend", "conns", "records/s");
  for (const auto fanin : fanins) {
    const auto wires = partition_wire(memory, fanin);
    for (const auto backend : backends) {
      live::LiveStudyOptions study_options;
      study_options.study.inference.min_requests = 1000;
      study_options.threads = 1;
      // One giant bucket: no mid-stream sealing, no late drops. The
      // shard queue stays bounded (production backpressure): ingest
      // rate = how well the backend keeps the classifier fed while
      // absorbing the fan-in, which is the daemon's actual job.
      study_options.bucket_seconds = memory.meta().duration_s;
      live::LiveStudy study(world.engine, world.ecosystem.abp_registry(),
                            study_options);
      live::StreamServerOptions server_options;
      server_options.net = backend;
      server_options.max_connections = 512;
      // The per-connection buffer budget a daemon can afford at real
      // fan-in (64 KiB x thousands of connections would not fly) — and
      // the regime the uring backend's shared buffer ring targets.
      server_options.read_buffer_bytes = 4096;
      std::optional<live::TraceStreamServer> server;
      server.emplace(study, util::ListenSocket::tcp(0), server_options);
      server->start();

      const auto start = Clock::now();
      std::vector<std::thread> clients;
      clients.reserve(fanin);
      for (std::size_t i = 0; i < fanin; ++i) {
        clients.emplace_back([&, i] {
          try {
            auto fd = util::connect_tcp("127.0.0.1", server->port());
            stream_in_chunks(fd.get(), wires[i]);
          } catch (const std::system_error&) {
          }
        });
      }
      // Wait for full ingestion before joining: a client may sit in a
      // blocking send until the server drains its connection.
      bool stalled = false;
      while (study.records_ingested() < records) {
        if (seconds_since(start) > 180.0) {
          stalled = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const auto elapsed = seconds_since(start);
      if (stalled) {
        std::fprintf(
            stderr,
            "STALL %s c%zu: ingested=%llu/%llu conns=%llu rejected=%llu "
            "bytes=%llu decode_errors=%llu\n",
            util::to_string(backend), fanin,
            static_cast<unsigned long long>(study.records_ingested()),
            static_cast<unsigned long long>(records),
            static_cast<unsigned long long>(server->connections_total()),
            static_cast<unsigned long long>(server->connections_rejected()),
            static_cast<unsigned long long>(server->bytes_received()),
            static_cast<unsigned long long>(server->decode_errors()));
      }
      // Destroying the server closes the listener too, so clients stuck
      // on never-accepted connections see a reset instead of hanging.
      server.reset();
      for (auto& client : clients) client.join();
      study.close();
      if (stalled) return 1;

      const auto rate = static_cast<double>(records) / elapsed;
      std::printf("%-8s %8zu %14.0f\n", util::to_string(backend), fanin,
                  rate);
      metrics.record(std::string("ingest_records_per_s_") +
                         util::to_string(backend) + "_c" +
                         std::to_string(fanin),
                     rate);
      if (fanin == 64) {
        if (backend == util::NetBackend::kThreads) threads_c64 = rate;
        else if (rate > best_event_c64) best_event_c64 = rate;
      }
    }
  }
  if (threads_c64 > 0 && best_event_c64 > 0) {
    const auto speedup = best_event_c64 / threads_c64;
    std::printf("\ningest speedup @64 conns (best event vs threads): "
                "%.2fx\n",
                speedup);
    metrics.record("ingest_speedup_c64", speedup);
  }

  // -- HTTP keep-alive ping-pong ---------------------------------------
  std::printf("\n%-8s %8s %14s\n", "backend", "conns", "req/s");
  for (const auto fanin : fanins) {
    for (const auto backend : backends) {
      live::LiveStudyOptions study_options;
      study_options.threads = 1;
      live::LiveStudy study(world.engine, world.ecosystem.abp_registry(),
                            study_options);
      live::HttpEndpointOptions http_options;
      http_options.net = backend;
      http_options.max_connections = 512;
      http_options.max_requests_per_connection = 1u << 30;
      std::optional<live::HttpEndpoint> endpoint;
      endpoint.emplace(study, util::ListenSocket::tcp(0), nullptr, nullptr,
                       nullptr, http_options);
      endpoint->start();
      const auto port = endpoint->port();

      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> responses{0};
      std::vector<std::thread> clients;
      clients.reserve(fanin);
      for (std::size_t i = 0; i < fanin; ++i) {
        clients.emplace_back([&, port] {
          try {
            auto fd = util::connect_tcp("127.0.0.1", port);
            const std::string request =
                "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
            std::string buffer;
            char chunk[2048];
            while (!stop.load(std::memory_order_relaxed)) {
              if (!util::send_all(fd.get(), request)) return;
              // /healthz is tiny: one response == headers + "ok\n".
              while (buffer.find("\r\n\r\nok\n") == std::string::npos) {
                const auto n = util::recv_some(fd.get(), chunk, sizeof chunk);
                if (n == 0) return;
                buffer.append(chunk, n);
              }
              buffer.clear();
              responses.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::system_error&) {
          }
        });
      }
      // Measure from after the spawn: starting a 256-thread herd takes
      // a while on a small machine, and early clients are already
      // ping-ponging during it. Same reason actual elapsed is used
      // instead of the nominal window (the sleep overshoots under
      // load).
      const auto base = responses.load();
      const auto measure_start = Clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(http_ms));
      stop.store(true);
      const auto served = responses.load() - base;
      const auto rate = static_cast<double>(served) /
                        std::max(seconds_since(measure_start), 1e-6);
      // Destroying the endpoint (not just stop()) closes the listener,
      // resetting any connection still in the accept backlog — a client
      // blocked in recv on one would otherwise hang the join forever.
      endpoint.reset();
      for (auto& client : clients) client.join();
      study.close();

      std::printf("%-8s %8zu %14.0f\n", util::to_string(backend), fanin,
                  rate);
      metrics.record(std::string("http_req_per_s_") +
                         util::to_string(backend) + "_c" +
                         std::to_string(fanin),
                     rate);
    }
  }

  return 0;
}
