#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "live/replay.h"
#include "sim/rbn_sim.h"
#include "trace/mmap_reader.h"
#include "trace/record.h"
#include "trace/writer.h"

namespace perfbench {

namespace fs = std::filesystem;

World::World()
    : ecosystem(sim::Ecosystem::generate(kWorldSeed)),
      lists(sim::generate_lists(ecosystem)),
      t1_ns(now_ns()),
      engine(sim::make_engine(lists,
                              sim::ListSelection{.easylist = true,
                                                 .derivative = true,
                                                 .easyprivacy = true,
                                                 .acceptable_ads = true})),
      t2_ns(now_ns()) {}

core::StudyOptions study_options() {
  core::StudyOptions options;
  options.inference.min_requests = 1000;
  return options;
}

namespace {

/// Keeps the input cache bounded: the newest `keep` files survive.
void evict_old_inputs(const fs::path& dir, std::size_t keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("trace-", 0) == 0 && entry.path().extension() == ".adst") {
      files.emplace_back(entry.last_write_time(error), entry.path());
    }
  }
  if (files.size() <= keep) return;
  std::sort(files.begin(), files.end());
  for (std::size_t i = 0; i + keep < files.size(); ++i) {
    fs::remove(files[i].second, error);
  }
}

}  // namespace

Inputs prepare_inputs(const Args& args) {
  const fs::path dir = fs::path(args.work_dir) / "inputs";
  fs::create_directories(dir);
  std::ostringstream stem;
  stem << "trace-s" << args.seed << "-w" << kWorldSeed << "-h" << kHouseholds
       << "x" << kTraceHours;
  Inputs inputs;
  inputs.trace_path = (dir / (stem.str() + ".adst")).string();
  inputs.sorted_path = (dir / (stem.str() + ".sorted.adst")).string();

  if (!fs::exists(inputs.trace_path) || !fs::exists(inputs.sorted_path)) {
    // Generate under temporary names and rename, so an interrupted run
    // never leaves a truncated trace behind under the cached name.
    const World world;
    const sim::RbnSimulator simulator(world.ecosystem, world.lists, args.seed);
    auto options = sim::rbn2_options(kHouseholds);
    options.duration_s = kTraceHours * 3600;
    const auto tmp_trace = inputs.trace_path + ".tmp";
    {
      trace::FileTraceWriter writer(tmp_trace);
      simulator.simulate(options, writer);
      writer.close();
    }
    trace::MemoryTrace buffered;
    {
      trace::MmapTraceReader reader(tmp_trace);
      reader.replay(buffered);
    }
    live::sort_by_time(buffered);
    const auto tmp_sorted = inputs.sorted_path + ".tmp";
    {
      trace::FileTraceWriter writer(tmp_sorted);
      live::replay_time_ordered(buffered, writer);
      writer.close();
    }
    fs::rename(tmp_trace, inputs.trace_path);
    fs::rename(tmp_sorted, inputs.sorted_path);
    evict_old_inputs(dir, 16);
  }

  const trace::MmapTraceReader sorted(inputs.sorted_path);
  inputs.http_records = sorted.meta().http_count_hint;
  inputs.tls_records = sorted.meta().tls_count_hint;
  inputs.wire_bytes = sorted.file_size();
  return inputs;
}

// -- process counters ---------------------------------------------------

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::vector<pid_t> task_ids() {
  std::vector<pid_t> ids;
  std::error_code error;
  for (const auto& entry : fs::directory_iterator("/proc/self/task", error)) {
    ids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double task_cpu_s(pid_t tid) {
  const auto base = "/proc/self/task/" + std::to_string(tid);
  // schedstat: nanoseconds on CPU, first field.
  if (std::ifstream schedstat(base + "/schedstat"); schedstat) {
    double ns = 0;
    if (schedstat >> ns) return ns / 1e9;
  }
  // Fallback: utime + stime in clock ticks (fields 14 and 15 of stat,
  // counted after the parenthesised command name).
  std::ifstream stat(base + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return 0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0;
  double stime = 0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool reset_peak_rss() {
  // Return freed heap to the kernel first, so the high-water mark starts
  // from live memory rather than from what earlier passes left cached.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear.flush());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// -- sample statistics --------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// -- result -------------------------------------------------------------

void Result::fail_check(const std::string& what) {
  if (correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  correct = false;
}

void info(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

void print_result(const Result& result) {
  const auto failed = result.correct ? result.failed : result.attempted;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const auto& [name, metric] : result.metrics) {
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", separator,
                name.c_str(), value, metric.second.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
