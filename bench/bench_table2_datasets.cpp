// Table 2 — data sets: generate the RBN-1 and RBN-2 traces, write them
// through the binary trace format, and report the overview the paper
// gives (§5). Subscriber counts are scaled (ADSCOPE_HOUSEHOLDS); the
// paper's absolute values are printed alongside for reference.
//
// Paper (Table 2):
//   RBN-1: 11 Apr 2015 00:00, 4 days,   7.5K subs, 18.8T bytes, 131.95M reqs
//   RBN-2: 11 Aug 2015 15:30, 15.5 h,  19.7K subs, 11.4T bytes,  85.09M reqs
#include <cstdio>

#include "experiment_common.h"
#include "stats/render.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/format.h"

namespace {

using namespace adscope;

struct TraceRow {
  std::string name;
  trace::TraceMeta meta;
  std::uint64_t http_reqs = 0;
  std::uint64_t http_bytes = 0;
  std::uint64_t tls_flows = 0;
  std::uint64_t file_records = 0;
};

class Counter final : public trace::TraceSink {
 public:
  void on_meta(const trace::TraceMeta& meta) override { meta_ = meta; }
  void on_http(const trace::HttpTransaction& txn) override {
    ++http_;
    bytes_ += txn.content_length;
  }
  void on_tls(const trace::TlsFlow&) override { ++tls_; }

  trace::TraceMeta meta_;
  std::uint64_t http_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t tls_ = 0;
};

}  // namespace

int main() {
  bench::preamble("Table 2 — passive measurement data sets",
                  "RBN-1: 4d/7.5K subs/131.95M reqs/18.8TB; RBN-2: "
                  "15.5h/19.7K subs/85.09M reqs (scaled here)");

  const auto world = bench::make_world();
  sim::RbnSimulator simulator(world.ecosystem, world.lists, world.seed);

  stats::TextTable table({"Trace", "Start", "Duration", "Subscribers",
                          "HTTPbytes", "HTTPreqs", "TLSflows",
                          "reqs/sub"});
  for (const auto& options :
       {bench::scaled_rbn1(), bench::scaled_rbn2()}) {
    const std::string path = "/tmp/adscope_" + options.name + ".adst";
    Counter counter;
    {
      trace::FileTraceWriter writer(path);
      trace::TeeSink tee;
      tee.add(writer);
      tee.add(counter);
      simulator.simulate(options, tee);
    }
    // Round-trip check: the written trace must replay identically.
    trace::FileTraceReader reader(path);
    Counter replay;
    reader.replay(replay);
    if (replay.http_ != counter.http_ || replay.tls_ != counter.tls_ ||
        replay.bytes_ != counter.bytes_) {
      std::fprintf(stderr, "trace round-trip mismatch for %s!\n",
                   options.name.c_str());
      return 1;
    }

    table.add_row({options.name,
                   options.name == "RBN-1" ? "Sat 00:00" : "Tue 15:30",
                   util::fixed(static_cast<double>(options.duration_s) / 3600.0,
                               1) + "h",
                   util::human_count(options.households, 1),
                   util::human_bytes(static_cast<double>(counter.bytes_)),
                   util::human_count(static_cast<double>(counter.http_)),
                   util::human_count(static_cast<double>(counter.tls_)),
                   util::fixed(static_cast<double>(counter.http_) /
                                   static_cast<double>(options.households),
                               0)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\npaper reqs/sub: RBN-1 ~17.6K over 4 days, RBN-2 ~4.3K over 15.5 h.\n"
      "Scale factor = paper subscribers / ADSCOPE_HOUSEHOLDS; shapes are\n"
      "scale-invariant (DESIGN.md section 4.5).\n");
  return 0;
}
