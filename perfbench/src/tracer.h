// In-memory span recorder for the traced (--trace 1) runs.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside the program is instrumented.
// Two shapes share one record:
//   * interval spans (begin/end): one timed region, busy = end - start;
//   * call spans (open_calls/add_call/close_calls): every call of one
//     layer entry point made while the span is open, summed — busy is
//     the total time inside the calls, `calls` their number. A span per
//     call would cost more memory than the calls themselves on a
//     200k-record trace.
// A span's self time is its busy time minus the busy time of its direct
// children. Derived spans (a layer cost computed by subtracting other
// measurements, not timed directly) carry derived = true.
//
// Spans stay in memory and are written as JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::uint32_t run_id = 0;
  std::uint32_t id = 0;      // 1-based; 0 = none
  std::uint32_t parent = 0;  // 0 = top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
  bool derived = false;
};

class Tracer {
 public:
  /// Starts a new run id; later spans belong to it.
  std::uint32_t new_run() { return ++run_id_; }

  std::uint32_t begin(std::string name, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  std::uint32_t open_calls(std::string name, std::uint32_t parent);
  void add_call(std::uint32_t id, std::int64_t ns, std::uint64_t calls = 1) {
    Span& span = spans_[id - 1];
    span.busy_ns += ns;
    span.calls += calls;
  }
  void close_calls(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  /// A layer cost computed from other spans, recorded for the span file.
  std::uint32_t add_derived(std::string name, std::uint32_t parent,
                            std::int64_t busy_ns, std::uint64_t calls);

  const Span& span(std::uint32_t id) const { return spans_[id - 1]; }
  std::int64_t busy_ns(std::uint32_t id) const { return span(id).busy_ns; }
  std::int64_t self_ns(std::uint32_t id) const;
  /// Sum of busy time over the top-level spans of `run_id`.
  std::int64_t top_level_busy_ns(std::uint32_t run_id) const;

  /// One JSON object per span. Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t run_id_ = 0;
};

/// Interval span closed by the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
