#pragma once
// Execution devices (DESIGN.md system #4): a simulated accelerator whose
// dedicated in-order stream workers execute kernels in submission order,
// while all data movement goes through upload/download with a modeled
// PCIe-like cost (latency + bandwidth), exercising the same staging and
// overlap logic a real GPU offload needs. Host code always stages its data.
//
// Streams follow the CUDA model: every device starts with one default
// stream (id 0); create_stream() adds further independent in-order queues.
// Work on different streams may overlap; cross-stream ordering is imposed
// only by wait_event(stream, event) — the analogue of
// cudaStreamWaitEvent — which makes `stream` hold until `event` (returned
// by an upload/download/launch on another stream) has completed.

#include <functional>
#include <memory>

#include "rshc/device/buffer.hpp"
#include "rshc/device/event.hpp"

namespace rshc::device {

/// In-order work queue handle; 0 is the default stream every device owns.
using StreamId = int;
inline constexpr StreamId kDefaultStream = 0;

/// Accelerator transfer cost model; defaults approximate a PCIe 3.0 x16 link.
struct AccelModel {
  double transfer_latency_sec = 10e-6;
  double transfer_bandwidth_bytes_per_sec = 12.0e9;
  /// Per-kernel launch overhead, the accelerator's analogue of a CUDA
  /// launch (drives the batch-size crossover in experiment F8).
  double launch_overhead_sec = 8e-6;
};

class Device {
 public:
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] virtual Buffer alloc(std::size_t n) = 0;

  /// New independent in-order stream; returns its id.
  [[nodiscard]] virtual StreamId create_stream() = 0;

  /// Asynchronous host->device copy (ordered w.r.t. other work on `stream`).
  virtual Event upload_async(std::span<const double> host, Buffer& dst,
                             StreamId stream = kDefaultStream) = 0;
  /// Asynchronous device->host copy.
  virtual Event download_async(const Buffer& src, std::span<double> host,
                               StreamId stream = kDefaultStream) = 0;
  /// Enqueue a kernel; it may touch device_view() of this device's buffers.
  /// `work_items` feeds the launch-overhead model (0 = untimed).
  virtual Event launch(std::function<void()> kernel, std::size_t work_items = 0,
                       StreamId stream = kDefaultStream) = 0;
  /// Make `stream` wait until `event` has completed before running any work
  /// submitted to it afterwards (cross-stream fence; no-op if already set).
  virtual void wait_event(StreamId stream, Event event) = 0;
  /// Block until all submitted work on all streams has completed.
  virtual void synchronize() = 0;

 protected:
  Device() = default;
};

/// Factory: a simulated accelerator with cost model `model`.
std::unique_ptr<Device> make_device(AccelModel model = {});

}  // namespace rshc::device
