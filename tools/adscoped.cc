// adscoped — live ingest & serving daemon.
//
// Accepts .adst byte streams (adscope replay, or anything that writes
// the wire format from docs/FORMAT.md) on a TCP or Unix socket, seals
// time-bucketed study aggregates into a snapshot store that keeps the
// trailing --window-s of history, and answers HTTP queries:
//
//   adscoped --port 7316 --http-port 7317 --bucket-s 300 --window-s 86400
//   curl localhost:7317/study/summary
//   curl localhost:7317/metrics
//
// SIGINT/SIGTERM triggers a graceful shutdown: stop accepting, drain
// the shard queues, seal every bucket, write the store's final
// /query/summary/* body to --snapshot-out, then exit. No accepted record
// is lost.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "live/stream_server.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "store/store_service.h"
#include "util/cli_args.h"
#include "util/net_backend.h"

namespace {

using namespace adscope;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

using cli::Args;

constexpr std::string_view kUsage =
    "usage: adscoped [options]\n"
    "  --port N          ingest TCP port (default 7316; 0 = ephemeral)\n"
    "  --unix PATH       ingest Unix socket instead of TCP\n"
    "  --http-port N     query/metrics port (default 7317; 0 = ephemeral)\n"
    "  --bucket-s N      aggregation bucket width, seconds (default 300)\n"
    "  --window-s N      served history span, seconds: the snapshot store\n"
    "                    keeps this many seconds of sealed buckets\n"
    "                    (default 86400; 0 = unbounded)\n"
    "  --threads N       analysis shards (default 1; 0 = hw threads)\n"
    "  --active-min N    active-browser request threshold (default 1000)\n"
    "  --seed S          filter-list world seed — must match the trace\n"
    "                    producer's (default 42)\n"
    "  --snapshot-out F  final /query/summary/* body on shutdown\n"
    "                    (default adscoped_snapshot.json, \"\" = skip)\n"
    "  --store-cache-mb N  query response cache budget, MiB\n"
    "                    (default 8, 0 disables caching)\n"
    "  --net B           network backend: uring|epoll|threads|auto\n"
    "                    (default auto; ADSCOPE_NET clamps)\n"
    "  --public          listen on all interfaces, not just loopback\n"
    "  --help            print this message\n";

/// The first parsed option that kUsage does not list, if any.
std::optional<std::string> unknown_option(const Args& args) {
  for (const auto& [key, value] : args.named) {
    const auto line = "\n  --" + key;
    if (kUsage.find(line + ' ') == std::string_view::npos &&
        kUsage.find(line + '\n') == std::string_view::npos) {
      return key;
    }
  }
  return std::nullopt;
}

int run(const Args& args) {
  const auto seed = args.get_u64("seed", 42);
  std::printf("adscoped: generating filter-list world (seed %llu) ...\n",
              static_cast<unsigned long long>(seed));
  const auto ecosystem = sim::Ecosystem::generate(seed);
  const auto lists = sim::generate_lists(ecosystem);
  const auto engine =
      sim::make_engine(lists, sim::ListSelection{.easylist = true,
                                                 .derivative = true,
                                                 .easyprivacy = true,
                                                 .acceptable_ads = true});

  live::LiveStudyOptions options;
  options.study.inference.min_requests = args.get_u64("active-min", 1000);
  options.threads = args.get_u64("threads", 1);
  options.bucket_seconds =
      std::max<std::uint64_t>(args.get_u64("bucket-s", 300), 1);

  // Snapshot store: the only holder of sealed history (LiveStudy frees
  // each bucket once on_seal has copied it in), so it must outlive the
  // LiveStudy whose workers feed it.
  store::StoreServiceOptions store_options;
  store_options.tree.study = options.study;
  store_options.tree.bucket_seconds = options.bucket_seconds;
  const auto window_s = args.get_u64("window-s", 86400);
  store_options.tree.retention_buckets =
      (window_s + options.bucket_seconds - 1) / options.bucket_seconds;
  store_options.cache.capacity_bytes =
      static_cast<std::size_t>(args.get_u64("store-cache-mb", 8)) << 20;
  store::StoreService store(store_options, &ecosystem.asn_db());

  options.on_seal = [&store](std::uint64_t bucket_id, std::size_t shard,
                             const core::TraceStudy& sealed) {
    store.tree().ingest(bucket_id, shard, sealed);
  };
  live::LiveStudy study(engine, ecosystem.abp_registry(), options);
  store.set_live_stats([&study] {
    return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                            study.total_drops(), study.current_bucket()};
  });

  const auto net_arg = args.get("net", "auto");
  std::optional<util::NetBackend> net;  // nullopt = auto
  if (net_arg != "auto") {
    net = util::parse_net_backend(net_arg);
    if (!net.has_value()) {
      std::fprintf(stderr, "adscoped: unknown --net backend '%s'\n",
                   net_arg.c_str());
      return 1;
    }
  }

  const bool loopback_only = !args.flag("public");
  const auto unix_path = args.get("unix");
  auto ingest_socket =
      unix_path.empty()
          ? util::ListenSocket::tcp(
                static_cast<std::uint16_t>(args.get_u64("port", 7316)),
                loopback_only)
          : util::ListenSocket::unix_path(unix_path);
  live::StreamServerOptions ingest_options;
  ingest_options.net = net;
  live::TraceStreamServer ingest(study, std::move(ingest_socket),
                                 ingest_options);

  auto http_socket = util::ListenSocket::tcp(
      static_cast<std::uint16_t>(args.get_u64("http-port", 7317)),
      loopback_only);
  live::HttpEndpointOptions http_options;
  http_options.net = net;
  live::HttpEndpoint endpoint(study, std::move(http_socket),
                              &ecosystem.asn_db(), &ingest, &store,
                              http_options);

  ingest.start();
  endpoint.start();
  if (unix_path.empty()) {
    std::printf("adscoped: ingest on tcp:%u, queries on http://127.0.0.1:%u\n",
                ingest.port(), endpoint.port());
  } else {
    std::printf("adscoped: ingest on unix:%s, queries on http://127.0.0.1:%u\n",
                unix_path.c_str(), endpoint.port());
  }
  std::printf("adscoped: %zu shard(s), %llu s buckets\n", study.shard_count(),
              static_cast<unsigned long long>(study.bucket_seconds()));
  std::printf("adscoped: net backend %s%s%s\n",
              util::to_string(ingest.backend()),
              ingest.backend_note().empty() ? "" : " — ",
              ingest.backend_note().c_str());
  std::printf(
      "adscoped: snapshot store retains %llu bucket(s) (0 = unbounded), "
      "%zu KiB response cache\n",
      static_cast<unsigned long long>(store.tree().retention_buckets()),
      store.cache_capacity_bytes() >> 10);

  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // Graceful shutdown: no new bytes, drain what was accepted, make it
  // all visible, persist, then tear down.
  std::printf("\nadscoped: shutting down ...\n");
  ingest.stop();
  study.seal_all();
  study.flush();

  const auto snapshot_out = args.get("snapshot-out", "adscoped_snapshot.json");
  if (!snapshot_out.empty()) {
    std::ofstream out(snapshot_out);
    if (out) {
      out << store.query("/query/summary/*").body << "\n";
      std::printf("adscoped: final snapshot -> %s\n", snapshot_out.c_str());
    } else {
      std::fprintf(stderr, "adscoped: cannot write %s\n", snapshot_out.c_str());
    }
  }

  endpoint.stop();
  study.close();
  std::printf(
      "adscoped: ingested %llu records (%llu dropped), served %llu "
      "HTTP requests\n",
      static_cast<unsigned long long>(study.records_ingested()),
      static_cast<unsigned long long>(study.total_drops()),
      static_cast<unsigned long long>(endpoint.requests_served()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cli::parse_args(argc, argv, 1);
  if (args.flag("help")) {
    std::fputs(kUsage.data(), stderr);
    return 0;
  }
  if (const auto unknown = unknown_option(args)) {
    std::fprintf(stderr, "adscoped: unknown option --%s\n%s", unknown->c_str(),
                 kUsage.data());
    return 2;
  }
  try {
    return run(args);
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "adscoped: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "adscoped: %s\n", error.what());
    return 1;
  }
}
