// Blocking multi-producer/multi-consumer queue with close semantics, used for
// the flush work queues (the engine's per-cache-tier flush stages, the UVM
// and ADIOS baselines' drain workers). The queues are low-rate control
// channels (one item per checkpoint), so a mutex-based design is the right
// trade-off over lock-free complexity.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace ckpt::util {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Appends `item`. Returns false if the queue was closed.
  bool Push(T item) {
    std::lock_guard lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and* drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// After Close(), pushes fail; pops drain remaining items then return
  /// nullopt. Idempotent.
  void Close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ckpt::util
