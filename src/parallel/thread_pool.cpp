#include "rshc/parallel/thread_pool.hpp"

#include "rshc/common/error.hpp"
#include "rshc/obs/obs.hpp"

namespace rshc::parallel {

ThreadPool::ThreadPool(unsigned num_threads) {
  RSHC_REQUIRE(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  for (auto& w : workers_) w.request_stop();
  cv_.notify_all();
  // jthread destructor joins.
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    LockGuard lock(mutex_);
    RSHC_REQUIRE(!stopping_, "enqueue on stopped thread pool");
    queue_.push_back(std::move(fn));
    RSHC_OBS_GAUGE("pool.queue_depth", static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

std::size_t ThreadPool::queued() const {
  LockGuard lock(mutex_);
  return queue_.size();
}

void ThreadPool::worker_loop(const std::stop_token& st) {
  for (;;) {
    std::function<void()> task;
    {
      LockGuard lock(mutex_);
      cv_.wait(lock.native_lock(), st, [this] {
        mutex_.assert_held();  // predicate runs under the wait's lock
        return !queue_.empty() || stopping_;
      });
      if (queue_.empty()) return;  // stop requested and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    introspect::pool_busy_counter().fetch_add(1, std::memory_order_relaxed);
    {
      RSHC_TRACE_SCOPE("pool.task", "pool", -1);
      task();
    }
    introspect::pool_busy_counter().fetch_sub(1, std::memory_order_relaxed);
    introspect::pool_finished_counter().fetch_add(1,
                                                  std::memory_order_relaxed);
    RSHC_OBS_COUNT("pool.tasks", 1);
  }
}

}  // namespace rshc::parallel
