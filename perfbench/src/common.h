// Shared pieces of the benchmark: arguments, the simulated world, the
// seeded input cache, process counters, sample statistics and the
// result line.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adblock/engine.h"
#include "core/study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "tracer.h"

namespace perfbench {

using namespace adscope;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where generated inputs and span files go (inside the checkout).
  std::string work_dir = ".perfbench";
};

/// Input scale: RBN-2 households x trace hours. Fixed, so every seed
/// gives a trace of the same shape. Many households over a short span
/// keep the per-seed record count and mix within a few percent.
inline constexpr std::uint32_t kHouseholds = 600;
inline constexpr std::uint64_t kTraceHours = 1;
/// Seed of the simulated world (ecosystem, filter lists), the tools'
/// default. --seed drives the traffic simulation only: a different
/// world per seed would swing per-record cost with the list contents.
inline constexpr std::uint64_t kWorldSeed = 42;

/// Ecosystem + generated filter lists + compiled engine — what every
/// adscope tool builds before it can classify a record. Members are
/// built in declaration order; the time points split the build into the
/// simulated world and the engine compile.
struct World {
  World();

  std::int64_t t0_ns = now_ns();
  sim::Ecosystem ecosystem;
  sim::GeneratedLists lists;
  std::int64_t t1_ns;
  adblock::FilterEngine engine;
  std::int64_t t2_ns;

  double build_ms() const { return static_cast<double>(t2_ns - t0_ns) / 1e6; }
  double engine_ms() const { return static_cast<double>(t2_ns - t1_ns) / 1e6; }
};

/// Study options shared by every workload and reference: the tools'
/// defaults.
core::StudyOptions study_options();

/// The seeded inputs of one run, generated once per (seed, scale) and
/// cached as files under Args::work_dir.
struct Inputs {
  /// Trace in producer order, as the simulator writes it (the input of
  /// `adscope study`).
  std::string trace_path;
  /// The same records in global timestamp order (what `adscope replay`
  /// puts on the wire); its bytes are the ingest stream.
  std::string sorted_path;
  std::uint64_t http_records = 0;
  std::uint64_t tls_records = 0;
  std::uint64_t wire_bytes = 0;

  std::uint64_t records() const { return http_records + tls_records; }
};
Inputs prepare_inputs(const Args& args);

// -- process counters ---------------------------------------------------

/// User + system CPU seconds of the whole process.
double process_cpu_s();
/// User + system CPU seconds of the calling thread.
double thread_cpu_s();
/// Thread ids of the process (/proc/self/task).
std::vector<pid_t> task_ids();
/// CPU seconds of one thread of this process (0 when it is gone).
double task_cpu_s(pid_t tid);
/// Resets the peak-RSS high-water mark; false when the kernel refuses.
bool reset_peak_rss();
/// Peak resident set since the last reset (MiB).
double peak_rss_mb();

// -- sample statistics --------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

// -- result -------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// An output check failed: every operation of the run counts as
  /// failed.
  void fail_check(const std::string& what);
};

/// Prints a human-readable line before the result (stdout).
void info(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(const Result& result);

}  // namespace perfbench
