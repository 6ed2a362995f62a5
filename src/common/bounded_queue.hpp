// A bounded MPMC blocking queue.
//
// Used where threads hand work across a boundary that is *not* on the
// critical datapath (e.g. the xRPC server dispatching connections). The
// datapath itself uses the simverbs queues, which model RDMA semantics.
//
// This is the exemplar for the repo's concurrency discipline (DESIGN.md
// §3.12): one lockdep-tracked mutex, every guarded member annotated, the
// two condition variables paired with the state they wait on, and wakeups
// proven against the TSan stress test in tests/common_test.cpp.
//
// Wakeup protocol: `not_empty_` is signalled on every push (an item became
// available), `not_full_` on every pop (a slot became available); both are
// broadcast on close(). Signalling happens with the mutex held, so a
// waiter cannot miss a wakeup between its predicate check and its wait.
// notify_one suffices for the item/slot signals because each push makes
// exactly one pop runnable (and vice versa); close() uses notify_all
// because it makes *every* waiter runnable.
#pragma once

#include <deque>
#include <optional>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"

namespace dpurpc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Blocks until space is available or the queue is closed.
  /// Returns false if closed.
  bool push(T item) DPURPC_EXCLUDES(mu_) {
    lockdep::UniqueLock lk(mu_);
    not_full_.wait(lk, [&]() DPURPC_REQUIRES(mu_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T item) DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed and drained.
  std::optional<T> pop() DPURPC_EXCLUDES(mu_) {
    lockdep::UniqueLock lk(mu_);
    not_empty_.wait(
        lk, [&]() DPURPC_REQUIRES(mu_) { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  std::optional<T> try_pop() DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void close() DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Instantaneous size; stale the moment it returns (other threads may
  /// push/pop concurrently) — callers may use it only as a hint.
  size_t size() const DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    return items_.size();
  }

  bool closed() const DPURPC_EXCLUDES(mu_) {
    lockdep::ScopedLock lk(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable lockdep::Mutex mu_{"common.BoundedQueue.mu"};
  lockdep::CondVar not_empty_;  ///< signalled when items_ grows or on close
  lockdep::CondVar not_full_;   ///< signalled when items_ shrinks or on close
  std::deque<T> items_ DPURPC_GUARDED_BY(mu_);
  bool closed_ DPURPC_GUARDED_BY(mu_) = false;
};

}  // namespace dpurpc
