#include "rshc/obs/telemetry.hpp"

// With RSHC_OBS=OFF this TU compiles to an empty object (the header
// provides inline no-op stubs); the CI obs-off nm lane checks that.
#if RSHC_OBS_ENABLED

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "rshc/obs/journal.hpp"
#include "rshc/obs/trace.hpp"

namespace rshc::obs::telemetry {

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

bool env_off(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  return s == "0" || s == "off" || s == "OFF" || s == "false";
}

// Last heartbeat: low-frequency writes; mutex and payload travel together
// so the guarded-by relation is expressible.
struct HbState {
  Mutex mutex;
  Heartbeat hb RSHC_GUARDED_BY(mutex);
};

HbState& hb_state() {
  static HbState s;
  return s;
}

// relaxed: monotonic watchdog progress ticker, eventual visibility only.
std::atomic<std::uint64_t> g_hb_ticks{0};

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::vector<std::string> default_counter_tracks() {
  return {"device.h2d.bytes",  "device.d2h.bytes",
          "halo.bytes_sent",   "comm.bytes_sent",
          "solver.hb.step",    "solver.hb.zones_per_sec",
          "pool.queue_depth"};
}

SamplerOptions sampler_options_from_env() {
  SamplerOptions opt;
  opt.enabled = !env_off("RSHC_TELEMETRY");
  opt.interval = std::chrono::milliseconds(std::max(
      1, env_int("RSHC_TELEMETRY_INTERVAL_MS", kDefaultIntervalMs)));
  const char* out = std::getenv("RSHC_TELEMETRY_OUT");
  if (out != nullptr) opt.jsonl_path = out;
  opt.counter_tracks = default_counter_tracks();
  return opt;
}

void publish_heartbeat(std::int64_t step, double t, double dt,
                       double zones_per_sec) noexcept {
  if (!enabled()) return;
  // noexcept: first-use metric registration can allocate; dropping one
  // heartbeat beats terminating the solver step that published it.
  try {
    Registry* scoped = Registry::scoped();
    Registry* reg = scoped != nullptr ? scoped : &Registry::global();
    Heartbeat hb;
    hb.step = step;
    hb.t = t;
    hb.dt = dt;
    hb.zones_per_sec = zones_per_sec;
    // Halo traffic is counted in the publishing rank's registry; device
    // transfers are counted by unscoped stream-worker threads, i.e. in
    // the global registry.
    hb.halo_bytes =
        static_cast<double>(reg->counter("halo.bytes_sent").total());
    hb.h2d_bytes = static_cast<double>(
        Registry::global().counter("device.h2d.bytes").total());
    hb.d2h_bytes = static_cast<double>(
        Registry::global().counter("device.d2h.bytes").total());
    reg->gauge("solver.hb.step").set(static_cast<double>(step));
    reg->gauge("solver.hb.t").set(t);
    reg->gauge("solver.hb.dt").set(dt);
    reg->gauge("solver.hb.zones_per_sec").set(zones_per_sec);
    reg->gauge("solver.hb.mlups").set(zones_per_sec / 1e6);
    reg->gauge("solver.hb.halo_bytes").set(hb.halo_bytes);
    reg->gauge("solver.hb.h2d_bytes").set(hb.h2d_bytes);
    reg->gauge("solver.hb.d2h_bytes").set(hb.d2h_bytes);
    // The process-wide heartbeat view and the watchdog's process-source
    // ticker belong to unscoped (whole-process) solvers only. A thread
    // under a ScopedRegistry is one job of a multi-job process
    // (simulation service): letting it tick the process source would mask
    // another job's stall, and letting it overwrite last_heartbeat() would
    // smear unrelated jobs' progress into one bogus stream. Each running
    // service job is a watchdog source of its own (parallel/watchdog.hpp).
    if (scoped == nullptr) {
      {
        HbState& s = hb_state();
        LockGuard lock(s.mutex);
        s.hb = hb;
      }
      g_hb_ticks.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
  }
}

std::uint64_t heartbeat_ticks() noexcept {
  return g_hb_ticks.load(std::memory_order_relaxed);
}

Heartbeat last_heartbeat() {
  HbState& s = hb_state();
  LockGuard lock(s.mutex);
  return s.hb;
}

// --- Sampler ---------------------------------------------------------

Sampler::Sampler(SamplerOptions opt) : opt_(std::move(opt)) {
  if (opt_.enabled && !opt_.jsonl_path.empty()) open_stream();
}

Sampler::~Sampler() {
  stop();
  LockGuard lock(mutex_);
  if (stream_open_) os_.close();
  stream_open_ = false;
}

void Sampler::open_stream() {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(opt_.jsonl_path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  std::string line;
  line += "{\"schema\":\"";
  line += kSchemaName;
  line += "\",\"v\":";
  line += std::to_string(kSchemaVersion);
  line += ",\"kind\":\"config\",\"interval_ms\":";
  line += std::to_string(opt_.interval.count());
  line += ",\"ring_capacity\":";
  line += std::to_string(opt_.ring_capacity);
  line += ",\"ts_ms\":";
  append_double(line, static_cast<double>(now_ns()) / 1e6);
  line += '}';
  LockGuard lock(mutex_);
  os_.open(opt_.jsonl_path, std::ios::trunc);
  stream_open_ = os_.good();
  if (stream_open_) {
    os_ << line << '\n';
    os_.flush();
  }
}

void Sampler::attach_registry(int pid, const Registry* reg) {
  LockGuard lock(mutex_);
  extra_.emplace_back(pid, reg);
}

void Sampler::detach_registries() {
  LockGuard lock(mutex_);
  extra_.clear();
}

void Sampler::sample_now() {
  std::vector<std::pair<int, const Registry*>> regs;
  regs.emplace_back(0, &Registry::global());
  {
    LockGuard lock(mutex_);
    regs.insert(regs.end(), extra_.begin(), extra_.end());
  }
  const std::int64_t ts = now_ns() / 1'000'000;
  const Heartbeat hb = last_heartbeat();
  const std::uint64_t ticks = heartbeat_ticks();

  std::vector<Sample> taken;
  taken.reserve(regs.size());
  for (const auto& [pid, reg] : regs) {
    Sample s;
    s.ts_ms = ts;
    s.pid = pid;
    s.snapshot = reg->snapshot();
    taken.push_back(std::move(s));
  }

  // Counter-event emission happens outside mutex_ (the tracer takes its
  // own locks; keeping the two lock families un-nested keeps the process
  // lock-order graph trivially acyclic).
  if (tracing_active()) {
    for (const Sample& s : taken) {
      for (const std::string& name : opt_.counter_tracks) {
        if (const Snapshot::Entry* e = s.snapshot.find(name)) {
          Tracer::global().record_counter(name, "telemetry", e->value, s.pid);
        }
      }
    }
  }

  LockGuard lock(mutex_);
  for (Sample& s : taken) {
    s.seq = seq_++;
    if (stream_open_) {
      std::string line;
      line.reserve(512);
      line += "{\"schema\":\"";
      line += kSchemaName;
      line += "\",\"v\":";
      line += std::to_string(kSchemaVersion);
      line += ",\"kind\":\"sample\",\"seq\":";
      line += std::to_string(s.seq);
      line += ",\"ts_ms\":";
      line += std::to_string(s.ts_ms);
      line += ",\"pid\":";
      line += std::to_string(s.pid);
      line += ",\"hb\":{\"step\":";
      line += std::to_string(hb.step);
      line += ",\"t\":";
      append_double(line, hb.t);
      line += ",\"dt\":";
      append_double(line, hb.dt);
      line += ",\"zones_per_sec\":";
      append_double(line, hb.zones_per_sec);
      line += ",\"ticks\":";
      line += std::to_string(ticks);
      line += "},\"metrics\":{";
      bool first = true;
      for (const Snapshot::Entry& e : s.snapshot.entries) {
        if (!first) line += ',';
        first = false;
        line += '"';
        journal::append_json_escaped(line, e.name);
        line += "\":";
        append_double(line, e.value);
      }
      line += "}}";
      os_ << line << '\n';
    }
    if (opt_.ring_capacity > 0) {
      if (ring_.size() < opt_.ring_capacity) {
        ring_.push_back(std::move(s));
      } else {
        ring_[ring_next_] = std::move(s);
        ring_next_ = (ring_next_ + 1) % opt_.ring_capacity;
      }
      ++ring_written_;
    }
  }
  if (stream_open_) os_.flush();
  taken_.fetch_add(static_cast<std::int64_t>(taken.size()),
                   std::memory_order_relaxed);
}

std::vector<Sample> Sampler::samples() const {
  LockGuard lock(mutex_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  // Oldest-first: when wrapped, the oldest live sample sits at ring_next_.
  const std::size_t n = ring_.size();
  const std::size_t start = ring_written_ > n ? ring_next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % n]);
  }
  return out;
}

std::int64_t Sampler::samples_taken() const noexcept {
  return taken_.load(std::memory_order_relaxed);
}

void Sampler::start() {
  if (!opt_.enabled || thread_.joinable()) return;
  {
    LockGuard lock(mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void Sampler::stop() noexcept {
  // noexcept: shutdown path; sampling failure must not escape.
  try {
    if (!thread_.joinable()) return;
    {
      LockGuard lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // One final sample so short runs always record their end state.
    sample_now();
  } catch (...) {
  }
}

void Sampler::loop() {
  // Thread entry: swallow rather than terminate on a sampling failure.
  try {
    for (;;) {
      {
        LockGuard lock(mutex_);
        cv_.wait_for(lock.native_lock(), opt_.interval, [this] {
          mutex_.assert_held();  // predicate runs under the wait's lock
          return stop_requested_;
        });
        if (stop_requested_) return;
      }
      sample_now();
    }
  } catch (...) {
  }
}

}  // namespace rshc::obs::telemetry

#endif  // RSHC_OBS_ENABLED
