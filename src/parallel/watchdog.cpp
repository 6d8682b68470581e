#include "rshc/parallel/watchdog.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "rshc/comm/communicator.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"

// Only the journal dump, the registry snapshot and the heartbeat term
// name rshc::obs; with RSHC_OBS=OFF they vanish at preprocessing time
// (the CI obs-off nm lane checks this object).
#if RSHC_OBS_ENABLED
#include "rshc/obs/journal.hpp"
#include "rshc/obs/metrics.hpp"
#include "rshc/obs/telemetry.hpp"
#endif

namespace rshc::parallel {

namespace {

using Clock = std::chrono::steady_clock;

struct Watched {
  std::uint64_t id;
  StallSource source;
  std::uint64_t last_progress;
  Clock::time_point last_change;
  bool fired = false;  ///< one firing per stall episode
};

struct Sources {
  Mutex mutex;
  std::vector<Watched> list RSHC_GUARDED_BY(mutex);
  std::uint64_t next_id RSHC_GUARDED_BY(mutex) = 1;
  // Held by the scan from before it reads the list until its callbacks
  // return; ~StallWatch takes it after unlisting, so once the destructor
  // returns no callback of that source can run.
  Mutex callbacks;
};

Sources& sources() {
  static Sources s;
  return s;
}

// One pass over every source; returns the number of stalls fired.
std::int64_t scan(std::chrono::milliseconds timeout) {
  Sources& s = sources();
  LockGuard callbacks(s.callbacks);
  std::vector<std::pair<std::function<void(std::int64_t)>, std::int64_t>>
      due;
  const auto now = Clock::now();
  {
    LockGuard lock(s.mutex);
    for (Watched& w : s.list) {
      const std::uint64_t p = w.source.progress();
      if (p != w.last_progress || (w.source.busy && !w.source.busy())) {
        w.last_progress = p;
        w.last_change = now;
        w.fired = false;
      } else if (!w.fired && now - w.last_change >= timeout) {
        w.fired = true;
        due.emplace_back(w.source.on_stall,
                         std::chrono::duration_cast<std::chrono::milliseconds>(
                             now - w.last_change)
                             .count());
      }
    }
  }
  // Callbacks run with the list unlocked, so a callback can never invert
  // against a registration made under another lock (the service's
  // dispatch registers under its own mutex).
  for (const auto& [on_stall, idle_ms] : due) on_stall(idle_ms);
  return static_cast<std::int64_t>(due.size());
}

std::uint64_t process_progress() noexcept {
  std::uint64_t p =
      static_cast<std::uint64_t>(introspect::graph_nodes_finished()) +
      static_cast<std::uint64_t>(introspect::pool_tasks_finished()) +
      static_cast<std::uint64_t>(comm::introspect::messages_received());
#if RSHC_OBS_ENABLED
  p += obs::telemetry::heartbeat_ticks();
#endif
  return p;
}

}  // namespace

WatchdogPolicy parse_watchdog_policy(std::string_view s) {
  if (s.empty() || s == "0" || s == "off" || s == "OFF" || s == "false") {
    return WatchdogPolicy::kOff;
  }
  if (s == "fatal" || s == "FATAL") return WatchdogPolicy::kFatal;
  return WatchdogPolicy::kWarn;
}

WatchdogOptions watchdog_options_from_env() {
  WatchdogOptions opt;
  const char* v = std::getenv("RSHC_WATCHDOG");
  opt.policy =
      v == nullptr ? WatchdogPolicy::kOff : parse_watchdog_policy(v);
  const char* ms = std::getenv("RSHC_WATCHDOG_TIMEOUT_MS");
  if (ms != nullptr && *ms != '\0') {
    opt.timeout = std::chrono::milliseconds(std::max(1, std::atoi(ms)));
  }
  return opt;
}

StallWatch::StallWatch(StallSource source) {
  const std::uint64_t p = source.progress();
  Sources& s = sources();
  LockGuard lock(s.mutex);
  id_ = s.next_id++;
  s.list.push_back({id_, std::move(source), p, Clock::now()});
}

StallWatch::~StallWatch() {
  Sources& s = sources();
  {
    LockGuard lock(s.mutex);
    std::erase_if(s.list, [&](const Watched& w) { return w.id == id_; });
  }
  LockGuard wait_out_callbacks(s.callbacks);
}

Watchdog::Watchdog(WatchdogOptions opt)
    : opt_(opt),
      // Warn-mode log output at most once per stall window (and never
      // more often than once a second); the journal records every firing.
      warn_limit_(std::chrono::milliseconds(
          std::max<long long>(opt.timeout.count(), 1000))) {}

Watchdog::~Watchdog() { stop(); }

std::int64_t Watchdog::stalls_detected() const noexcept {
  return stalls_.load(std::memory_order_relaxed);
}

void Watchdog::start() {
  if (opt_.policy == WatchdogPolicy::kOff || thread_.joinable()) return;
  {
    LockGuard lock(mutex_);
    stop_requested_ = false;
  }
  process_.emplace(StallSource{
      process_progress,
      [] {
        return introspect::pending_graph_nodes() +
                   comm::introspect::mailbox_depth() >
               0;
      },
      [this](std::int64_t idle_ms) { fire(idle_ms); }});
  thread_ = std::thread([this] { loop(); });
}

void Watchdog::stop() noexcept {
  // noexcept: shutdown path; a diagnostic failure must not escape.
  try {
    if (!thread_.joinable()) return;
    {
      LockGuard lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    process_.reset();
  } catch (...) {
  }
}

void Watchdog::loop() {
  // Thread entry: swallow rather than terminate on a diagnostic failure.
  try {
    const auto poll =
        std::max(std::chrono::milliseconds(10), opt_.timeout / 4);
    for (;;) {
      {
        LockGuard lock(mutex_);
        cv_.wait_for(lock.native_lock(), poll, [this] {
          mutex_.assert_held();  // predicate runs under the wait's lock
          return stop_requested_;
        });
        if (stop_requested_) return;
      }
      stalls_.fetch_add(scan(opt_.timeout), std::memory_order_relaxed);
    }
  } catch (...) {
  }
}

void Watchdog::fire(std::int64_t idle_ms) {
  const std::int64_t pending_nodes = introspect::pending_graph_nodes();
  const std::int64_t mailbox_depth = comm::introspect::mailbox_depth();
  const std::int64_t pool_busy = introspect::pool_busy_workers();
#if RSHC_OBS_ENABLED
  const obs::telemetry::Heartbeat hb = obs::telemetry::last_heartbeat();
  obs::journal::Journal::global().event(
      "watchdog",
      {{"idle_ms", idle_ms},
       {"policy",
        opt_.policy == WatchdogPolicy::kFatal ? "fatal" : "warn"},
       {"pending_nodes", pending_nodes},
       {"mailbox_depth", mailbox_depth},
       {"pool_busy", pool_busy},
       {"heartbeat_step", hb.step},
       {"heartbeat_t", hb.t},
       {"heartbeat_zones_per_sec", hb.zones_per_sec},
       obs::journal::Field::raw(
           "registry", obs::Registry::global().snapshot().to_json())});
#endif
  if (opt_.policy == WatchdogPolicy::kFatal) {
    log::error("rshc watchdog: no progress for ", idle_ms,
               " ms with pending work (graph nodes ", pending_nodes,
               ", mailbox depth ", mailbox_depth,
               "); aborting (RSHC_WATCHDOG=fatal)");
    std::abort();
  }
  log::warn_limited(warn_limit_, "rshc watchdog: no progress for ", idle_ms,
                    " ms (pending graph nodes ", pending_nodes,
                    ", mailbox depth ", mailbox_depth, ", busy workers ",
                    pool_busy, ")");
}

}  // namespace rshc::parallel
