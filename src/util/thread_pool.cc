#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace adscope::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > kMaxThreads) {
    throw std::invalid_argument("thread count " + std::to_string(requested) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxThreads));
  }
  if (requested > 0) return requested;
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const auto count = resolve_thread_count(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(packaged));
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) wake_.wait(mutex_);
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace adscope::util
