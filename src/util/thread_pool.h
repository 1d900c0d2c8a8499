// Reusable fixed-size worker pool.
//
// Workers are started once and reused across submissions — the sharded
// analysis path runs many studies (benchmarks, repeated CLI runs)
// without re-paying thread start-up each time. Tasks may block (the
// live shard drain loops block on their record queues), so callers that
// submit N interdependent long-running tasks must size the pool with at
// least N threads; LiveStudy enforces this. ParallelTraceStudy's cursor
// tasks wait on nothing and run on a pool of any size.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/annotations.h"

namespace adscope::util {

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future resolves when it finishes (exceptions
  /// propagate through the future).
  std::future<void> submit(std::function<void()> task);

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;
  std::deque<std::packaged_task<void()>> tasks_ ADSCOPE_GUARDED_BY(mutex_);
  bool stopping_ ADSCOPE_GUARDED_BY(mutex_) = false;
};

/// Most threads (and shards) one pool or study may ask for. Each worker
/// costs a stack and each shard a full per-user pipeline, so a
/// mistyped count (100000, or -1 wrapped to 2^64-1) would start that
/// many threads or exhaust memory before the first record. 256 leaves
/// headroom over common server core counts.
inline constexpr std::size_t kMaxThreads = 256;

/// Pool sizing helper: explicit request, else hardware concurrency
/// (capped at kMaxThreads). Throws std::invalid_argument when the
/// request exceeds kMaxThreads.
std::size_t resolve_thread_count(std::size_t requested);

}  // namespace adscope::util
