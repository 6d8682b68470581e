#include "rshc/device/device.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/common/mutex.hpp"
#include "rshc/obs/obs.hpp"

namespace rshc::device {

namespace {

int next_device_id() {
  // relaxed: id allocator; uniqueness only, no ordering implied.
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void count_h2d(std::size_t bytes) {
  RSHC_OBS_COUNT("device.h2d.bytes", static_cast<std::int64_t>(bytes));
}
void count_d2h(std::size_t bytes) {
  RSHC_OBS_COUNT("device.d2h.bytes", static_cast<std::int64_t>(bytes));
}

/// Simulated accelerator: one in-order worker thread per stream, modeled
/// transfer and launch costs. The "delay" is imposed by making the worker
/// sleep for the modeled duration *in addition* to the actual memcpy/kernel
/// time it spends — the memcpy stands in for DMA, the sleep for the
/// link/launch overhead a real device would add. Cross-stream ordering
/// exists only through wait_event fences, exactly like CUDA streams.
class AccelDevice final : public Device {
 public:
  explicit AccelDevice(AccelModel model)
      : model_(model), id_(next_device_id()) {
    streams_.push_back(std::make_unique<Stream>(id_));  // default stream 0
  }

  ~AccelDevice() override {
    for (auto& s : streams_) s->stop();
  }

  [[nodiscard]] Buffer alloc(std::size_t n) override { return Buffer(n, id_); }

  [[nodiscard]] StreamId create_stream() override {
    LockGuard lock(streams_mutex_);
    streams_.push_back(std::make_unique<Stream>(id_));
    return static_cast<StreamId>(streams_.size()) - 1;
  }

  Event upload_async(std::span<const double> host, Buffer& dst,
                     StreamId stream) override {
    RSHC_REQUIRE(host.size() == dst.size(), "upload size mismatch");
    count_h2d(host.size_bytes());
    const double cost = transfer_cost(host.size_bytes());
    auto d = dst.device_view();
    return enqueue(stream, "accel.upload", [host, d, cost] {
      model_sleep(cost);
      std::memcpy(d.data(), host.data(), host.size_bytes());
    });
  }

  Event download_async(const Buffer& src, std::span<double> host,
                       StreamId stream) override {
    RSHC_REQUIRE(host.size() == src.size(), "download size mismatch");
    count_d2h(host.size_bytes());
    const double cost = transfer_cost(host.size_bytes());
    auto s = src.device_view();
    return enqueue(stream, "accel.download", [host, s, cost] {
      model_sleep(cost);
      std::memcpy(host.data(), s.data(), host.size_bytes());
    });
  }

  Event launch(std::function<void()> kernel, std::size_t work_items,
               StreamId stream) override {
    const double overhead = work_items > 0 ? model_.launch_overhead_sec : 0.0;
    return enqueue(stream, "accel.kernel",
                   [kernel = std::move(kernel), overhead] {
                     model_sleep(overhead);
                     kernel();
                   });
  }

  void wait_event(StreamId stream, Event event) override {
    enqueue(stream, "accel.wait_event",
            [event = std::move(event)] { event.wait(); });
  }

  void synchronize() override {
    // Fence every stream, then wait on all fences: streams drain in
    // parallel, and each fence completes only after everything submitted
    // to its stream beforehand.
    std::vector<Stream*> all;
    {
      LockGuard lock(streams_mutex_);
      all.reserve(streams_.size());
      for (auto& s : streams_) all.push_back(s.get());
    }
    std::vector<Event> fences;
    fences.reserve(all.size());
    for (Stream* s : all) fences.push_back(s->enqueue("accel.fence", [] {}));
    for (const Event& f : fences) f.wait();
  }

 private:
  // Stream op tagged with a static-duration name so each in-order worker
  // thread shows each op as a span on its own trace track.
  struct StreamOp {
    const char* name = "";
    std::function<void()> fn;
    Event event;
  };

  /// One in-order work queue with a dedicated worker thread.
  struct Stream {
    explicit Stream(int device_id)
        : id(device_id), worker([this](const std::stop_token& st) {
            worker_loop(st);
          }) {}

    // noexcept: called from the device destructor; a throw while tearing
    // down a worker would terminate anyway, so promise it up front.
    void stop() noexcept {
      {
        LockGuard lock(mutex);
        stopping = true;
      }
      worker.request_stop();
      cv.notify_all();
      if (worker.joinable()) worker.join();
    }

    Event enqueue(const char* name, std::function<void()> op)
        RSHC_EXCLUDES(mutex) {
      Event e;
      {
        LockGuard lock(mutex);
        RSHC_REQUIRE(!stopping, "submit to destroyed accelerator");
        queue.push_back(StreamOp{name, std::move(op), e});
      }
      cv.notify_one();
      return e;
    }

    void worker_loop(const std::stop_token& st) RSHC_EXCLUDES(mutex) {
      for (;;) {
        StreamOp item;
        {
          LockGuard lock(mutex);
          cv.wait(lock.native_lock(), st, [this] {
            mutex.assert_held();  // predicate runs under the wait's lock
            return !queue.empty() || stopping;
          });
          if (queue.empty()) return;
          item = std::move(queue.front());
          queue.pop_front();
        }
        {
          RSHC_TRACE_SCOPE(item.name, "device", id);
          item.fn();
        }
        item.event.set();
      }
    }

    int id;
    Mutex mutex;
    std::condition_variable_any cv;
    std::deque<StreamOp> queue RSHC_GUARDED_BY(mutex);
    bool stopping RSHC_GUARDED_BY(mutex) = false;
    std::jthread worker;
  };

  [[nodiscard]] double transfer_cost(std::size_t bytes) const {
    return model_.transfer_latency_sec +
           static_cast<double>(bytes) / model_.transfer_bandwidth_bytes_per_sec;
  }

  /// Impose the modeled delay. A bare sleep_for overshoots microsecond
  /// delays by a scheduler quantum (tens of us), which would swamp the
  /// very latency/launch terms the model exists to represent and push the
  /// F8 batch-size crossover far from where the modeled costs put it. So:
  /// sleep for the bulk of long waits, then spin out the (sub-quantum)
  /// tail on the steady clock — the worker is a dedicated stream thread,
  /// and busy-polling the tail is what real drivers do too.
  static void model_sleep(double secs) {
    if (secs <= 0.0) return;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(secs);
    constexpr auto kSpinTail = std::chrono::microseconds(200);
    if (std::chrono::duration<double>(secs) > 2 * kSpinTail) {
      std::this_thread::sleep_for(std::chrono::duration<double>(secs) -
                                  kSpinTail);
    }
    while (std::chrono::steady_clock::now() < deadline) {
      // sub-200us tail by construction
    }
  }

  Event enqueue(StreamId stream, const char* name, std::function<void()> op) {
    Stream* s = nullptr;
    {
      LockGuard lock(streams_mutex_);
      RSHC_REQUIRE(stream >= 0 &&
                       stream < static_cast<StreamId>(streams_.size()),
                   "unknown stream id");
      s = streams_[static_cast<std::size_t>(stream)].get();
    }
    return s->enqueue(name, std::move(op));
  }

  AccelModel model_;
  int id_;
  Mutex streams_mutex_;  // guards the streams_ vector, not the queues
  std::vector<std::unique_ptr<Stream>> streams_
      RSHC_GUARDED_BY(streams_mutex_);
};

}  // namespace

std::unique_ptr<Device> make_device(AccelModel model) {
  return std::make_unique<AccelDevice>(model);
}

}  // namespace rshc::device
