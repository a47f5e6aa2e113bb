// In-memory multi-producer/multi-consumer channel.
//
// The paper's workers report end-of-stage confidence to the user-space
// scheduler over Linux named pipes. Eugene's workers are threads, so that hop
// is this in-memory channel: the live scheduler sends jobs to its workers and
// receives their stage results through it, and nothing is wire-encoded.
#pragma once

#include <deque>
#include <optional>

#include "common/thread_annotations.hpp"

namespace eugene {

/// Blocking unbounded MPMC queue with close semantics.
/// After close(), sends are rejected and receives drain remaining items then
/// return std::nullopt.
template <typename T>
class Channel {
 public:
  /// Enqueues a value. Returns false if the channel is closed.
  bool send(T value) EUGENE_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed and drained.
  std::optional<T> receive() EUGENE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    cv_.wait(mutex_, [this]() EUGENE_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Blocks up to `timeout_ms` for an item; std::nullopt on timeout or when
  /// the channel is closed and drained. Lets a supervisor keep running its
  /// health sweep even when every producer has gone silent.
  std::optional<T> receive_for(double timeout_ms) EUGENE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    cv_.wait_for(mutex_, timeout_ms, [this]() EUGENE_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Non-blocking receive; std::nullopt when nothing is pending.
  std::optional<T> try_receive() EUGENE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Marks the channel closed and wakes all blocked receivers.
  void close() EUGENE_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const EUGENE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t pending() const EUGENE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  mutable Mutex mutex_{LockRank::kChannel, "Channel::mutex_"};
  CondVar cv_;
  std::deque<T> items_ EUGENE_GUARDED_BY(mutex_);
  bool closed_ EUGENE_GUARDED_BY(mutex_) = false;
};

}  // namespace eugene
