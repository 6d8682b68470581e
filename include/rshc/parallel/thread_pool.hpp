#pragma once
// Fixed-size worker pool with a central task queue. This is the
// shared-memory substrate for the futurized dataflow scheduler
// (TaskGraph::run(pool), DESIGN.md system #2) and the simulation
// service's job workers. Follows CP.24/CP.25: tasks rather than raw
// detached threads; workers are std::jthread and join on destruction.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "rshc/common/mutex.hpp"

namespace rshc::parallel {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers (>=1). Workers sleep when idle.
  /// ThreadPool(w) means exactly w threads run work, in the task graph
  /// and in the service alike: the caller of TaskGraph::run(pool) waits
  /// for the drain and runs no node itself.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Fire-and-forget: run `fn` on some worker. `fn` must not throw (an
  /// escaping exception terminates the worker thread, and the process):
  /// the task graph catches per node, the service's job loop per job.
  void enqueue(std::function<void()> fn) RSHC_EXCLUDES(mutex_);

  /// Number of tasks currently queued (diagnostic).
  [[nodiscard]] std::size_t queued() const RSHC_EXCLUDES(mutex_);

 private:
  void worker_loop(const std::stop_token& st) RSHC_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ RSHC_GUARDED_BY(mutex_);
  // Only the constructor mutates workers_; size() reads it lock-free after
  // construction completes (publication via the constructing thread).
  std::vector<std::jthread> workers_;
  bool stopping_ RSHC_GUARDED_BY(mutex_) = false;
};

/// Worker-state introspection for the stall watchdog's per-thread dump
/// (obs::telemetry), summed over every pool in the process. Deliberately
/// obs-free so the hooks exist in all build configurations.
namespace introspect {

// relaxed: watchdog diagnostics only; readers tolerate stale values.
inline std::atomic<long long>& pool_busy_counter() noexcept {
  static std::atomic<long long> busy{0};
  return busy;
}

// relaxed: monotonic progress ticker for the watchdog; no ordering needed.
inline std::atomic<long long>& pool_finished_counter() noexcept {
  static std::atomic<long long> finished{0};
  return finished;
}

/// Workers currently executing a task (as opposed to sleeping on the CV).
[[nodiscard]] inline long long pool_busy_workers() noexcept {
  return pool_busy_counter().load(std::memory_order_relaxed);
}

/// Monotonic count of pool tasks that ran to completion.
[[nodiscard]] inline long long pool_tasks_finished() noexcept {
  return pool_finished_counter().load(std::memory_order_relaxed);
}

}  // namespace introspect

}  // namespace rshc::parallel
