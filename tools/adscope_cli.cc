// adscope — command-line front end.
//
//   adscope gen         synthesize an RBN header trace (.adst)
//   adscope study       run the full paper pipeline on a trace or pcap,
//                       optionally writing a privacy-truncated http.log
//   adscope export-pcap render a trace as Ethernet/IPv4/TCP pcap frames
//   adscope lists       write the generated filter lists as ABP text
//   adscope classify    one-shot URL classification
//   adscope replay      stream a trace into a running adscoped daemon
//   adscope query       answer /query paths over a trace offline, via
//                       the same snapshot store the daemon serves
//   adscope lint        static analysis over ABP filter lists
//
// Run without arguments for the option reference.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/http_log.h"
#include "core/parallel_study.h"
#include "lint/linter.h"
#include "lint/render.h"
#include "live/replay.h"
#include "core/report.h"
#include "pcap/pcap.h"
#include "core/study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "live/live_study.h"
#include "store/store_service.h"
#include "trace/mmap_reader.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/cli_args.h"
#include "util/format.h"
#include "util/simd.h"

namespace {

using namespace adscope;

using cli::Args;
using cli::parse_args;

struct WorldBundle {
  sim::Ecosystem ecosystem;
  sim::GeneratedLists lists;
  adblock::FilterEngine engine;

  explicit WorldBundle(std::uint64_t seed)
      : ecosystem(sim::Ecosystem::generate(seed)),
        lists(sim::generate_lists(ecosystem)),
        engine(sim::make_engine(lists,
                                sim::ListSelection{.easylist = true,
                                                   .derivative = true,
                                                   .easyprivacy = true,
                                                   .acceptable_ads = true})) {}
};

int cmd_gen(const Args& args) {
  const auto out = args.get("out", "trace.adst");
  const auto seed = args.get_u64("seed", 42);
  WorldBundle world(seed);
  sim::RbnSimulator simulator(world.ecosystem, world.lists, seed);
  auto options =
      args.flag("rbn1")
          ? sim::rbn1_options(static_cast<std::uint32_t>(
                args.get_u64("households", 250)))
          : sim::rbn2_options(static_cast<std::uint32_t>(
                args.get_u64("households", 300)));
  if (args.named.contains("hours")) {
    options.duration_s = args.get_u64("hours", 15) * 3600;
  }
  std::printf("generating %s: %u households, %.1f h ...\n",
              options.name.c_str(), options.households,
              static_cast<double>(options.duration_s) / 3600.0);
  trace::FileTraceWriter writer(out);
  const auto stats = simulator.simulate(options, writer);
  writer.close();
  std::printf("wrote %s: %llu HTTP transactions, %llu TLS flows, %s\n",
              out.c_str(),
              static_cast<unsigned long long>(stats.http_requests),
              static_cast<unsigned long long>(stats.https_flows),
              util::human_bytes(static_cast<double>(stats.bytes)).c_str());
  return 0;
}

int cmd_study(const Args& args) {
  const auto path = args.get("trace");
  const auto pcap_path = args.get("pcap");
  if (path.empty() && pcap_path.empty()) {
    std::fprintf(stderr, "study: --trace or --pcap required\n");
    return 2;
  }

  // --simd forces the kernel dispatch level (same values as the
  // ADSCOPE_SIMD env var; the flag wins). Downward only — asking for
  // avx2 on a non-AVX2 host clamps to what the CPU has. Decisions and
  // report bytes are identical at every level; only throughput moves.
  if (const auto simd_arg = args.get("simd"); !simd_arg.empty()) {
    const auto level = util::simd::parse_level(simd_arg);
    if (!level.has_value()) {
      std::fprintf(stderr, "study: --simd must be off, sse2, or avx2\n");
      return 2;
    }
    util::simd::set_level(*level);
  }

  const auto seed = args.get_u64("seed", 42);
  WorldBundle world(seed);

  core::StudyOptions options;
  options.inference.min_requests = args.get_u64("active-min", 1000);

  // --threads N shards the pipeline by client IP; N=1 (default) keeps
  // the serial study. Results are identical either way.
  const auto threads = args.get_u64("threads", 1);
  std::unique_ptr<core::TraceStudy> serial;
  std::unique_ptr<core::ParallelTraceStudy> parallel;
  trace::TraceSink* study = nullptr;
  if (threads > 1) {
    core::ParallelStudyOptions parallel_options;
    parallel_options.study = options;
    parallel_options.threads = threads;
    parallel = std::make_unique<core::ParallelTraceStudy>(
        world.engine, world.ecosystem.abp_registry(), parallel_options);
    study = parallel.get();
  } else {
    serial = std::make_unique<core::TraceStudy>(
        world.engine, world.ecosystem.abp_registry(), options);
    study = serial.get();
  }

  // Optional privacy-preserving transaction log (the paper's §5 output).
  std::unique_ptr<analyzer::HttpLogWriter> log;
  analyzer::HttpExtractor log_extractor;
  if (!args.get("log").empty()) {
    const auto privacy = args.get("privacy", "fqdn") == "full"
                             ? analyzer::HttpLogWriter::Privacy::kFull
                             : analyzer::HttpLogWriter::Privacy::kFqdnTruncated;
    log = std::make_unique<analyzer::HttpLogWriter>(args.get("log"), privacy);
    log_extractor.set_object_callback(
        [&](const analyzer::WebObject& object) { log->write(object); });
  }

  // --io picks the trace decode surface: mmap (zero-copy, regular
  // files only) or stream (the istream reader). Default auto: mmap
  // whenever the input supports it. Reports are byte-identical across
  // the modes; only the decode cost differs.
  const auto io_arg = args.get("io", "auto");
  if (io_arg != "auto" && io_arg != "mmap" && io_arg != "stream") {
    std::fprintf(stderr, "study: --io must be mmap or stream\n");
    return 2;
  }
  const bool use_mmap =
      pcap_path.empty() &&
      (io_arg == "mmap" ||
       (io_arg == "auto" && trace::MmapTraceReader::supported(path)));
  if (io_arg == "mmap" && pcap_path.empty() &&
      !trace::MmapTraceReader::supported(path)) {
    std::fprintf(stderr, "study: --io=mmap requires a regular file\n");
    return 2;
  }

  trace::TeeSink tee;
  tee.add(*study);
  if (log) tee.add(log_extractor);
  std::uint64_t records = 0;
  const char* io_mode = "stream";
  if (!pcap_path.empty()) {
    pcap::PcapHttpReader reader(pcap_path);
    records = reader.replay(tee);
    io_mode = "pcap";
  } else if (use_mmap) {
    trace::MmapTraceReader reader(path);
    io_mode = "mmap";
    if (parallel && !log) {
      // Each shard walks the mapping with its own cursor.
      records = reader.replay_batches(*parallel);
    } else {
      records = reader.replay(tee);
    }
  } else {
    trace::FileTraceReader reader(path);
    records = reader.replay(tee);
  }
  core::StudyView view;
  if (parallel) {
    parallel->finish();
    view = parallel->view();
    // stderr, so the report on stdout stays byte-identical to serial.
    std::fprintf(stderr, "shard records:");
    for (const auto count : parallel->shard_records()) {
      std::fprintf(stderr, " %llu", static_cast<unsigned long long>(count));
    }
    std::fprintf(stderr, "\n");
  } else {
    serial->finish();
    view = serial->view();
  }
  view.io_mode = io_mode;
  view.simd_mode = util::simd::to_string(util::simd::active_level());

  // The io and simd modes go on this line, not in the report: stdout
  // below it is asserted byte-identical across thread counts, io modes,
  // and ADSCOPE_SIMD levels.
  std::printf("read %llu records from %s via %s io (simd %s)",
              static_cast<unsigned long long>(records),
              (pcap_path.empty() ? path : pcap_path).c_str(), io_mode,
              view.simd_mode);
  if (threads > 1) std::printf(" (%llu analysis threads)",
                               static_cast<unsigned long long>(threads));
  std::printf("\n\n");
  std::fputs(
      core::render_full_report(view, &world.ecosystem.asn_db()).c_str(),
      stdout);
  if (log) {
    std::printf("http.log: %llu lines -> %s\n",
                static_cast<unsigned long long>(log->lines_written()),
                args.get("log").c_str());
  }
  return 0;
}

int cmd_export_pcap(const Args& args) {
  const auto in_path = args.get("trace");
  const auto out_path = args.get("out", "trace.pcap");
  if (in_path.empty()) {
    std::fprintf(stderr, "export-pcap: --trace required\n");
    return 2;
  }
  pcap::PcapWriter writer(out_path);
  std::uint64_t records = 0;
  if (trace::MmapTraceReader::supported(in_path)) {
    trace::MmapTraceReader reader(in_path);
    records = reader.replay(writer);
  } else {
    trace::FileTraceReader reader(in_path);
    records = reader.replay(writer);
  }
  std::printf("converted %llu records into %llu pcap frames -> %s\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(writer.packets_written()),
              out_path.c_str());
  return 0;
}

int cmd_lists(const Args& args) {
  const auto dir = args.get("out-dir", ".");
  WorldBundle world(args.get_u64("seed", 42));
  const struct {
    const char* file;
    const std::string* text;
  } outputs[] = {
      {"easylist.txt", &world.lists.easylist},
      {"easylistgermany.txt", &world.lists.easylist_derivative},
      {"easyprivacy.txt", &world.lists.easyprivacy},
      {"exceptionrules.txt", &world.lists.acceptable_ads},
  };
  for (const auto& output : outputs) {
    const auto path = dir + "/" + output.file;
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fwrite(output.text->data(), 1, output.text->size(), file);
    std::fclose(file);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), output.text->size());
  }
  return 0;
}

int cmd_classify(const Args& args) {
  const auto url = args.get("url");
  if (url.empty()) {
    std::fprintf(stderr, "classify: --url required\n");
    return 2;
  }
  WorldBundle world(args.get_u64("seed", 42));
  auto type = http::RequestType::kOther;
  const auto type_name = args.get("type", "other");
  for (int t = 0; t <= static_cast<int>(http::RequestType::kOther); ++t) {
    if (to_string(static_cast<http::RequestType>(t)) == type_name) {
      type = static_cast<http::RequestType>(t);
      break;
    }
  }
  const auto request = adblock::make_request(url, args.get("page"), type);
  const auto verdict = world.engine.classify(request);
  std::printf("%s\n", std::string(to_string(verdict.decision)).c_str());
  if (verdict.filter != nullptr) {
    std::printf("  rule: %s\n  list: %s\n", verdict.filter->text().c_str(),
                std::string(to_string(verdict.list_kind)).c_str());
  }
  if (verdict.whitelist_saved_it()) {
    std::printf("  would be blocked by: %s\n",
                verdict.blocked_by->text().c_str());
  }
  std::printf("  is_ad: %s\n", verdict.is_ad() ? "yes" : "no");
  return verdict.is_ad() ? 0 : 1;
}

int cmd_replay(const Args& args) {
  live::ReplayOptions options;
  options.trace_path = args.get("trace");
  if (options.trace_path.empty()) {
    std::fprintf(stderr, "replay: --trace required\n");
    return 2;
  }
  options.host = args.get("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(args.get_u64("port", 7316));
  options.unix_path = args.get("unix");
  // --speedup 60 compresses an hour of trace time into a wall minute;
  // omitting it streams at full rate (daemon backpressure permitting).
  if (args.named.contains("speedup")) {
    options.speedup = std::strtod(args.get("speedup").c_str(), nullptr);
    if (options.speedup <= 0.0) {
      std::fprintf(stderr, "replay: --speedup must be > 0\n");
      return 2;
    }
  }
  // --presorted promises the file is already in timestamp order, which
  // skips the buffer-sort-re-encode pass and (for regular files)
  // unlocks the zero-copy mmap send path.
  options.time_order = !args.flag("presorted");
  const auto stats = live::replay_trace(options);
  const auto rate =
      stats.wall_s > 0 ? static_cast<double>(stats.records) / stats.wall_s
                       : 0.0;
  std::printf(
      "replayed %llu records (%s on the wire%s) in %.2f s — %.0f rec/s\n",
      static_cast<unsigned long long>(stats.records),
      util::human_bytes(static_cast<double>(stats.bytes)).c_str(),
      stats.zero_copy ? ", zero-copy" : "", stats.wall_s, rate);
  return 0;
}

// `query` replays a trace into an offline snapshot store and answers
// /query paths against it — the same engine the daemon serves over
// HTTP, so the printed bodies match wire responses byte for byte.
// Takes positional PATH arguments plus --key value options.
int cmd_query(int argc, char** argv) {
  std::vector<std::string> paths;
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      auto key = arg.substr(2);
      if (const auto eq = key.find('='); eq != std::string::npos) {
        args.named[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0 &&
                 std::strncmp(argv[i + 1], "/query", 6) != 0) {
        args.named[key] = argv[++i];
      } else {
        args.named[key] = "";
      }
    } else {
      paths.push_back(std::move(arg));
    }
  }
  const auto trace_path = args.get("trace");
  if (trace_path.empty() || paths.empty()) {
    std::fprintf(stderr,
                 "query: --trace and at least one /query path required\n"
                 "usage: adscope query --trace FILE [--bucket-s N] "
                 "[--threads N] [--seed S] [--retention N] [--active-min N] "
                 "PATH...\n");
    return 2;
  }

  WorldBundle world(args.get_u64("seed", 42));

  live::LiveStudyOptions options;
  options.study.inference.min_requests = args.get_u64("active-min", 1000);
  options.threads = args.get_u64("threads", 1);
  options.bucket_seconds = args.get_u64("bucket-s", 300);

  store::StoreServiceOptions store_options;
  store_options.tree.study = options.study;
  store_options.tree.bucket_seconds = options.bucket_seconds;
  const auto retention_s = args.get_u64("retention", 0);
  store_options.tree.retention_buckets =
      retention_s == 0
          ? 0
          : (retention_s + options.bucket_seconds - 1) / options.bucket_seconds;
  store::StoreService store(store_options, &world.ecosystem.asn_db());

  options.on_seal = [&store](std::uint64_t bucket_id, std::size_t shard,
                             const core::TraceStudy& sealed) {
    store.tree().ingest(bucket_id, shard, sealed);
  };
  live::LiveStudy study(world.engine, world.ecosystem.abp_registry(), options);

  std::uint64_t records = 0;
  if (trace::MmapTraceReader::supported(trace_path)) {
    trace::MmapTraceReader reader(trace_path);
    records = reader.replay(study);
  } else {
    trace::FileTraceReader reader(trace_path);
    records = reader.replay(study);
  }
  study.seal_all();
  study.flush();
  store.set_live_stats([&study] {
    return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                            study.total_drops(), study.current_bucket()};
  });
  std::fprintf(stderr, "query: %llu records -> %zu store bucket(s)\n",
               static_cast<unsigned long long>(records),
               store.tree().bucket_count());

  bool failed = false;
  for (const auto& path : paths) {
    const auto response = store.query(path);
    if (response.status != 200) failed = true;
    std::fputs(response.body.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  study.close();
  return failed ? 1 : 0;
}

// `lint` takes positional FILE arguments plus --key=value options, which
// the shared Args parser does not model; it parses argv itself.
int cmd_lint(int argc, char** argv) {
  std::vector<std::string> files;
  std::string format = "text";
  std::string prune_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg.rfind("--prune-dir=", 0) == 0) {
      prune_dir = arg.substr(12);
    } else if (arg == "--prune-dir" && i + 1 < argc) {
      prune_dir = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "lint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "lint: at least one filter-list file required\n"
                 "usage: adscope lint FILE... [--format=text|json] "
                 "[--prune-dir DIR]\n");
    return 2;
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "lint: --format must be text or json\n");
    return 2;
  }

  std::vector<lint::LintSource> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "lint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back({file, std::move(text).str(), lint::infer_kind(file)});
  }

  const auto result = lint::run_lint(sources);
  std::fputs(format == "json" ? lint::render_json(result).c_str()
                              : lint::render_text(result).c_str(),
             stdout);
  if (format == "json") std::fputc('\n', stdout);

  if (!prune_dir.empty()) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      // Strip any directory part: pruned lists land side by side in DIR.
      auto base = sources[s].name;
      if (const auto slash = base.rfind('/'); slash != std::string::npos) {
        base = base.substr(slash + 1);
      }
      const auto out_path = prune_dir + "/" + base;
      std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "lint: cannot write %s\n", out_path.c_str());
        return 2;
      }
      out << lint::emit_pruned(sources[s].text, result.prunable_lines[s]);
      std::fprintf(stderr, "pruned %zu rule(s) -> %s\n",
                   result.prunable_lines[s].size(), out_path.c_str());
    }
  }
  return result.has_errors() ? 1 : 0;
}

void usage() {
  std::fputs(
      "usage: adscope <gen|study|export-pcap|lists|classify|replay|query|"
      "lint> [options]\n"
      "  gen        --out FILE [--households N] [--hours H] [--rbn1] [--seed S]\n"
      "  study      --trace FILE | --pcap FILE  [--log FILE --privacy "
      "fqdn|full]\n"
      "             [--active-min N] [--seed S] [--threads N]\n"
      "             [--io mmap|stream]    trace decode surface (default:\n"
      "                                   mmap for regular files)\n"
      "  export-pcap --trace FILE --out FILE\n"
      "  lists    --out-dir DIR [--seed S]\n"
      "  classify --url URL [--page URL] [--type image|script|...]\n"
      "  replay   --trace FILE [--host H] [--port N | --unix PATH]\n"
      "           [--speedup X] [--presorted]  trust file timestamp order\n"
      "                                        (enables zero-copy send)\n"
      "  query    --trace FILE PATH...  [--bucket-s N] [--threads N]\n"
      "           [--seed S] [--retention N] [--active-min N]\n"
      "           PATHs are /query targets (grammar: docs/QUERY.md);\n"
      "           exit 0 = all 200, 1 = any error response\n"
      "  lint     FILE... [--format=text|json] [--prune-dir DIR]\n"
      "           exit 0 = clean, 1 = error findings, 2 = usage\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const auto args = parse_args(argc, argv, 2);
  try {
    if (command == "lint") return cmd_lint(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "gen") return cmd_gen(args);
    if (command == "study") return cmd_study(args);
    if (command == "export-pcap") return cmd_export_pcap(args);
    if (command == "lists") return cmd_lists(args);
    if (command == "classify") return cmd_classify(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "adscope %s: %s\n", command.c_str(), error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "adscope %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  usage();
  return 2;
}
