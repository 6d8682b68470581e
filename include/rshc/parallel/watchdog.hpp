#pragma once
// Stall watchdog (DESIGN.md "Stall watchdog"): the process's one stall
// detector. A watched source has a progress reading and a busy state; it
// stalls when it is busy and its progress has not moved for the timeout.
// The detector fires once per stall episode and re-arms when progress
// moves or the source goes idle. One Watchdog thread scans every source,
// polling at max(10 ms, timeout/4). Watchdog::start() registers the
// process source (graph, pool, mailbox and heartbeat progress; policy
// RSHC_WATCHDOG=off|warn|fatal); the simulation service registers each
// running job. Detection works in every build; only the journal dump, the
// registry snapshot and the heartbeat term need RSHC_OBS.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>

#include "rshc/common/log.hpp"
#include "rshc/common/mutex.hpp"

namespace rshc::parallel {

inline constexpr int kDefaultWatchdogTimeoutMs = 5000;

enum class WatchdogPolicy { kOff, kWarn, kFatal };

struct WatchdogOptions {
  WatchdogPolicy policy = WatchdogPolicy::kOff;
  std::chrono::milliseconds timeout{kDefaultWatchdogTimeoutMs};
};

/// "off"/"0"/"false" -> kOff, "fatal" -> kFatal, anything else -> kWarn.
[[nodiscard]] WatchdogPolicy parse_watchdog_policy(std::string_view s);

/// Options from RSHC_WATCHDOG / RSHC_WATCHDOG_TIMEOUT_MS (policy defaults
/// to kOff when RSHC_WATCHDOG is unset).
[[nodiscard]] WatchdogOptions watchdog_options_from_env();

/// One watched source. `progress` and `busy` run under the detector's
/// source-list lock, so they must be lock-free reads; `on_stall` runs on
/// the watchdog thread with that lock released.
struct StallSource {
  std::function<std::uint64_t()> progress;
  std::function<bool()> busy;  ///< empty: busy whenever watched
  std::function<void(std::int64_t idle_ms)> on_stall;
};

/// Watches a source for its lifetime. The destructor waits out a running
/// on_stall, so it must not run inside that callback or under a lock the
/// callback takes.
class StallWatch {
 public:
  explicit StallWatch(StallSource source);
  ~StallWatch();
  StallWatch(const StallWatch&) = delete;
  StallWatch& operator=(const StallWatch&) = delete;

 private:
  std::uint64_t id_;
};

/// The detector thread; the destructor stops it. A process runs one.
class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions opt = watchdog_options_from_env());
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Register the process source and spawn the thread (no-op when the
  /// policy is kOff or the thread runs).
  void start();
  void stop() noexcept;

  /// Stall episodes fired, over every source.
  [[nodiscard]] std::int64_t stalls_detected() const noexcept;

 private:
  void loop();
  void fire(std::int64_t idle_ms);

  WatchdogOptions opt_;
  log::RateLimit warn_limit_;
  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  bool stop_requested_ RSHC_GUARDED_BY(mutex_) = false;
  // relaxed: test-visible stall counter, eventual visibility only.
  std::atomic<std::int64_t> stalls_{0};
  std::optional<StallWatch> process_;  // managed by start()/stop() only
  std::thread thread_;                 // managed by start()/stop() only
};

}  // namespace rshc::parallel
