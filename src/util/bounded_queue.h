// Bounded multi-producer blocking queue with backpressure.
//
// The live shard runtime (live::LiveStudy) feeds one queue per shard
// worker: an ingest thread blocks in push() when a shard falls behind,
// so memory stays bounded no matter how long the stream runs. close()
// releases consumers once the producers are done; pop() then drains the
// remaining items and finally reports exhaustion.
//
// The bound is in units, not items: push() takes the item's weight
// (default 1), and capacity() bounds the sum of the queued weights.
// LiveStudy pushes one batch of records per item and weighs it by its
// record count, so its queue_capacity still bounds queued records. An
// item heavier than the whole capacity is admitted into an empty queue,
// so no push waits forever.
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

  /// Blocks while `weight` more units would overfill a non-empty queue
  /// (backpressure). Returns false when the queue was closed (the item
  /// is dropped).
  bool push(T item, std::size_t weight = 1) {
    {
      MutexLock lock(mutex_);
      while (load_ != 0 && load_ + weight > capacity_ && !closed_) {
        not_full_.wait(mutex_);
      }
      if (closed_) return false;
      items_.emplace_back(std::move(item), weight);
      load_ += weight;
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
      out = std::move(items_.front().first);
      load_ -= items_.front().second;
      items_.pop_front();
    }
    // Producers wait for different weights: the room one pop frees may
    // fit a light waiter but not a heavy one, so wake them all.
    not_full_.notify_all();
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

  /// Units queued: the sum of the weights of the queued items.
  std::size_t size() const {
    MutexLock lock(mutex_);
    return load_;
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<std::pair<T, std::size_t>> items_ ADSCOPE_GUARDED_BY(mutex_);
  std::size_t load_ ADSCOPE_GUARDED_BY(mutex_) = 0;
  bool closed_ ADSCOPE_GUARDED_BY(mutex_) = false;
};

}  // namespace adscope::util
