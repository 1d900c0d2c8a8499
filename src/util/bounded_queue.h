// Bounded multi-producer blocking queue with backpressure.
//
// The live shard runtime (live::LiveStudy) feeds one queue per shard
// worker: an ingest thread blocks in push() when a shard falls behind,
// so memory stays bounded no matter how long the stream runs. close()
// releases consumers once the producers are done; pop() then drains the
// remaining records and finally reports exhaustion.
//
// Locking is expressed through util::Mutex/CondVar so the Clang
// thread-safety analysis proves every access to the guarded state is
// under mutex_ (wait predicates are explicit loops for the same reason).
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "util/annotations.h"

namespace adscope::util {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full (backpressure). Returns false when
  /// the queue was closed (the item is dropped).
  bool push(T item) {
    {
      MutexLock lock(mutex_);
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and
  /// drained. Returns false only on exhaustion.
  bool pop(T& out) {
    {
      MutexLock lock(mutex_);
      while (items_.empty() && !closed_) not_empty_.wait(mutex_);
      if (items_.empty()) return false;  // closed and drained
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  /// No further push() succeeds; consumers drain what remains.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t capacity() const noexcept { return capacity_; }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ ADSCOPE_GUARDED_BY(mutex_);
  bool closed_ ADSCOPE_GUARDED_BY(mutex_) = false;
};

}  // namespace adscope::util
