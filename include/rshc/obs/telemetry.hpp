#pragma once
// Live run telemetry (DESIGN.md system: observability — live layer).
// Two cooperating pieces on top of the metrics Registry / span Tracer /
// event Journal:
//
//  - Sampler: a background thread that snapshots the Registry every
//    RSHC_TELEMETRY_INTERVAL_MS into a bounded ring, streams each sample
//    as one "rshc.telemetry" v1 JSONL line (RSHC_TELEMETRY_OUT), and —
//    when tracing is active — re-emits a watch list of metrics as Chrome
//    trace counter events (ph:"C"), so byte counters and step-rate gauges
//    line up with the phase spans on one timeline.
//  - Solver heartbeat: FvSolver publishes per-step progress (step, t, dt,
//    zones/sec, halo + device transfer bytes) as gauges, rank-scoped under
//    a ScopedRegistry like every other metric, plus a process-global
//    progress ticker that is one term of the stall watchdog's process
//    source (parallel/watchdog.hpp; the watchdog itself is not
//    observability and works in every build).
//
// Compile gating mirrors obs.hpp: with RSHC_OBS=OFF everything here is an
// inline no-op stub and src/obs/telemetry.cpp compiles to an empty object
// (the CI obs-off nm lane proves it).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rshc/obs/metrics.hpp"

#ifndef RSHC_OBS_ENABLED
#define RSHC_OBS_ENABLED 1
#endif

#if RSHC_OBS_ENABLED
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <thread>
#include <utility>

#include "rshc/common/mutex.hpp"
#endif

namespace rshc::obs::telemetry {

inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kSchemaName = "rshc.telemetry";
inline constexpr int kDefaultIntervalMs = 250;

/// Most recent solver heartbeat (process-wide, last writer wins; on a
/// multi-rank run each rank also carries the same values as rank-scoped
/// solver.hb.* gauges).
struct Heartbeat {
  std::int64_t step = 0;       ///< solver steps taken
  double t = 0.0;              ///< simulation time
  double dt = 0.0;             ///< last step size
  double zones_per_sec = 0.0;  ///< interior zone-updates/sec (x RK stages)
  double halo_bytes = 0.0;     ///< cumulative halo.bytes_sent
  double h2d_bytes = 0.0;      ///< cumulative device.h2d.bytes
  double d2h_bytes = 0.0;      ///< cumulative device.d2h.bytes
};

/// One Registry snapshot taken by the Sampler.
struct Sample {
  std::int64_t seq = 0;    ///< 0-based take order (gap = dropped sample)
  std::int64_t ts_ms = 0;  ///< trace-epoch milliseconds (obs::now_ns())
  int pid = 0;             ///< rank track (0 = process-global registry)
  Snapshot snapshot;
};

struct SamplerOptions {
  bool enabled = true;  ///< RSHC_TELEMETRY=0/off disables the sampler
  std::chrono::milliseconds interval{kDefaultIntervalMs};
  std::size_t ring_capacity = 256;
  std::string jsonl_path;  ///< "" = keep samples in the ring only
  /// Metric names re-emitted as ph:"C" counter events while tracing.
  std::vector<std::string> counter_tracks;
};

#if RSHC_OBS_ENABLED

/// Default ph:"C" watch list: transfer byte counters + heartbeat gauges.
[[nodiscard]] std::vector<std::string> default_counter_tracks();

/// Options from RSHC_TELEMETRY / RSHC_TELEMETRY_INTERVAL_MS /
/// RSHC_TELEMETRY_OUT, with default_counter_tracks().
[[nodiscard]] SamplerOptions sampler_options_from_env();

/// Record a solver step: publishes solver.hb.* gauges into the calling
/// thread's registry (scoped or global), folds in the current transfer
/// byte counters, updates last_heartbeat(), and ticks the watchdog's
/// process-source progress counter. No-op when obs is disabled at runtime.
void publish_heartbeat(std::int64_t step, double t, double dt,
                       double zones_per_sec) noexcept;

/// Monotonic count of publish_heartbeat() calls (watchdog progress).
[[nodiscard]] std::uint64_t heartbeat_ticks() noexcept;
[[nodiscard]] Heartbeat last_heartbeat();

/// Background Registry sampler. start()/stop() manage the thread; the
/// object must outlive it. sample_now() takes one synchronous sample and
/// is valid with or without the thread (tests use it for determinism).
class Sampler {
 public:
  explicit Sampler(SamplerOptions opt = sampler_options_from_env());
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Also sample `reg` (e.g. a rank's scoped registry), attributing its
  /// counter events and JSONL lines to rank track `pid`. The registry
  /// must stay alive until detach_registries() or stop(). Thread-safe.
  void attach_registry(int pid, const Registry* reg) RSHC_EXCLUDES(mutex_);
  void detach_registries() RSHC_EXCLUDES(mutex_);

  /// Spawn the sampling thread (no-op when !opt.enabled or running).
  void start();
  /// Join the thread and take one final sample so short runs always
  /// record their end state. Safe to call repeatedly; the destructor
  /// calls it.
  void stop() noexcept;

  void sample_now() RSHC_EXCLUDES(mutex_);

  /// Ring contents, oldest first (global + attached registries
  /// interleaved in take order).
  [[nodiscard]] std::vector<Sample> samples() const RSHC_EXCLUDES(mutex_);
  [[nodiscard]] std::int64_t samples_taken() const noexcept;

 private:
  void loop();
  void open_stream();

  SamplerOptions opt_;
  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  bool stop_requested_ RSHC_GUARDED_BY(mutex_) = false;
  std::vector<std::pair<int, const Registry*>> extra_ RSHC_GUARDED_BY(mutex_);
  std::vector<Sample> ring_ RSHC_GUARDED_BY(mutex_);
  std::size_t ring_next_ RSHC_GUARDED_BY(mutex_) = 0;
  std::uint64_t ring_written_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t seq_ RSHC_GUARDED_BY(mutex_) = 0;
  std::ofstream os_ RSHC_GUARDED_BY(mutex_);
  bool stream_open_ RSHC_GUARDED_BY(mutex_) = false;
  // relaxed: test-visible sample counter, eventual visibility only.
  std::atomic<std::int64_t> taken_{0};
  std::thread thread_;  // managed by start()/stop() only
};

#else  // !RSHC_OBS_ENABLED

inline std::vector<std::string> default_counter_tracks() { return {}; }
inline SamplerOptions sampler_options_from_env() { return {}; }

inline void publish_heartbeat(std::int64_t, double, double, double) noexcept {
}
inline std::uint64_t heartbeat_ticks() noexcept { return 0; }
inline Heartbeat last_heartbeat() { return {}; }

class Sampler {
 public:
  explicit Sampler(SamplerOptions = {}) {}
  void attach_registry(int, const Registry*) {}
  void detach_registries() {}
  void start() {}
  void stop() noexcept {}
  void sample_now() {}
  [[nodiscard]] std::vector<Sample> samples() const { return {}; }
  [[nodiscard]] std::int64_t samples_taken() const noexcept { return 0; }
};

#endif  // RSHC_OBS_ENABLED

}  // namespace rshc::obs::telemetry
