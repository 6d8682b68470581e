#pragma once
// Umbrella header for the observability subsystem: metrics registry + span
// tracer + the instrumentation macros the rest of the library uses.
//
// Two gates, per DESIGN.md:
//  - compile time: the CMake option RSHC_OBS (default ON) defines
//    RSHC_OBS_ENABLED. With RSHC_OBS=OFF every macro below expands to
//    nothing, so instrumented hot paths carry no tracer calls at all (the
//    CI job checks the solver object code for leaked obs symbols).
//  - runtime: obs::enabled() (env RSHC_OBS=0 to disable) gates metric
//    accumulation; obs::tracing_active() (env RSHC_TRACE=1 to enable)
//    additionally gates span recording.
//
// The macros cache the Registry lookup in a function-local static, so the
// steady-state cost of a disabled-at-runtime site is one relaxed load and
// a branch; an enabled site adds two clock reads and a striped atomic add.

#include "rshc/obs/metrics.hpp"
#include "rshc/obs/trace.hpp"

#ifndef RSHC_OBS_ENABLED
#define RSHC_OBS_ENABLED 1
#endif

namespace rshc::obs {

/// Combined phase instrumentation: one clock-read pair feeds both a
/// registry TimeHist and (when tracing) a trace span. When the calling
/// thread is under a ScopedRegistry (rank scoping), the sample goes to the
/// scoped registry's timer of the same name instead of the cached global
/// one.
class PhaseScope {
 public:
  PhaseScope(TimeHist& hist, const char* name, const char* cat,
             std::int64_t id = -1) noexcept {
    if (enabled()) {
      // A scoped-registry timer lookup can allocate on first use; on
      // failure skip this scope's instrumentation (hist_ stays null)
      // rather than let the exception escape the noexcept constructor.
      try {
        Registry* scoped = Registry::scoped();
        hist_ = scoped != nullptr ? &scoped->timer(name) : &hist;
      } catch (...) {
        return;
      }
      name_ = name;
      cat_ = cat;
      id_ = id;
      trace_ = tracing_active();
      t0_ = now_ns();
    }
  }
  ~PhaseScope() {
    if (hist_ != nullptr) {
      const std::int64_t t1 = now_ns();
      hist_->record_ns(t1 - t0_);
      // Same contract as ~TraceScope: drop the span, never terminate.
      try {
        if (trace_) Tracer::global().record_span(name_, cat_, id_, t0_, t1);
      } catch (...) {
      }
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TimeHist* hist_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t id_ = -1;
  std::int64_t t0_ = 0;
  bool trace_ = false;
};

/// Write the registry CSV, the Chrome trace JSON, and/or a schema-versioned
/// run report next to a run's other outputs when the environment asks for
/// it: RSHC_DUMP_METRICS=1 writes <prefix>.metrics.csv, RSHC_DUMP_TRACE=1
/// writes <prefix>.trace.json, RSHC_DUMP_REPORT=1 writes
/// <prefix>.report.json (see rshc/obs/report.hpp for the schema). The
/// prefix's parent directory is created if absent. Used by the bench
/// harnesses with prefix = "bench_results/<id>". No-op otherwise.
void maybe_dump(const std::string& prefix);

// Forward declaration so RSHC_OBS_HEARTBEAT does not pull the full
// telemetry header (threads, streams) into every instrumented TU; the
// definition lives in rshc/obs/telemetry.hpp.
namespace telemetry {
void publish_heartbeat(std::int64_t step, double t, double dt,
                       double zones_per_sec) noexcept;
}  // namespace telemetry

}  // namespace rshc::obs

#define RSHC_OBS_CONCAT_INNER(a, b) a##b
#define RSHC_OBS_CONCAT(a, b) RSHC_OBS_CONCAT_INNER(a, b)

#if RSHC_OBS_ENABLED

/// Increment counter `name` (string literal) by n. A thread under a
/// ScopedRegistry reports into its scoped registry (per-rank view) via an
/// uncached lookup; all other threads keep the cached-static fast path.
#define RSHC_OBS_COUNT(name, n)                                         \
  do {                                                                  \
    if (::rshc::obs::enabled()) {                                       \
      if (::rshc::obs::Registry* rshc_obs_scoped_reg =                  \
              ::rshc::obs::Registry::scoped()) {                        \
        rshc_obs_scoped_reg->counter(name).add(n);                      \
      } else {                                                          \
        static ::rshc::obs::Counter& rshc_obs_counter_site =            \
            ::rshc::obs::Registry::global().counter(name);              \
        rshc_obs_counter_site.add(n);                                   \
      }                                                                 \
    }                                                                   \
  } while (false)

/// Set gauge `name` (string literal) to v (ScopedRegistry-aware, see
/// RSHC_OBS_COUNT).
#define RSHC_OBS_GAUGE(name, v)                                         \
  do {                                                                  \
    if (::rshc::obs::enabled()) {                                       \
      if (::rshc::obs::Registry* rshc_obs_scoped_reg =                  \
              ::rshc::obs::Registry::scoped()) {                        \
        rshc_obs_scoped_reg->gauge(name).set(v);                        \
      } else {                                                          \
        static ::rshc::obs::Gauge& rshc_obs_gauge_site =                \
            ::rshc::obs::Registry::global().gauge(name);                \
        rshc_obs_gauge_site.set(v);                                     \
      }                                                                 \
    }                                                                   \
  } while (false)

/// Time the rest of the enclosing scope into TimeHist `name` and, when
/// tracing, emit a span (name/cat literals; id is a small integer arg).
#define RSHC_OBS_PHASE(name, cat, id)                                   \
  static ::rshc::obs::TimeHist& RSHC_OBS_CONCAT(rshc_obs_hist_,         \
                                                __LINE__) =             \
      ::rshc::obs::Registry::global().timer(name);                      \
  ::rshc::obs::PhaseScope RSHC_OBS_CONCAT(rshc_obs_phase_, __LINE__)(   \
      RSHC_OBS_CONCAT(rshc_obs_hist_, __LINE__), name, cat, id)

/// Trace-only span for the rest of the enclosing scope (no registry).
#define RSHC_TRACE_SCOPE(name, cat, id)                                 \
  ::rshc::obs::TraceScope RSHC_OBS_CONCAT(rshc_obs_trace_, __LINE__)(   \
      name, cat, id)

/// Sender half of a cross-thread flow arrow: yields a process-unique flow
/// id (0 when tracing is off) to carry to the receiver, and records the
/// ph:"s" endpoint inside the currently open span.
#define RSHC_OBS_FLOW_BEGIN(name, cat) ::rshc::obs::flow_begin(name, cat)

/// Receiver half: records the ph:"f" endpoint for `flow_id` inside the
/// currently open span. Ignores flow id 0.
#define RSHC_OBS_FLOW_END(name, cat, flow_id) \
  ::rshc::obs::flow_end(name, cat, flow_id)

/// Publish a solver heartbeat (per-step live-telemetry gauges + watchdog
/// progress tick; see rshc/obs/telemetry.hpp). Arguments are unevaluated
/// under RSHC_OBS=OFF.
#define RSHC_OBS_HEARTBEAT(step, t, dt, zps) \
  ::rshc::obs::telemetry::publish_heartbeat(step, t, dt, zps)

#else  // !RSHC_OBS_ENABLED

// The value argument sits in an unevaluated operand: it is type-checked
// and counts as used (no unused-variable warnings), but nothing runs.
#define RSHC_OBS_COUNT(name, n) ((void)sizeof(n))
#define RSHC_OBS_GAUGE(name, v) ((void)0)
#define RSHC_OBS_PHASE(name, cat, id) ((void)0)
#define RSHC_TRACE_SCOPE(name, cat, id) ((void)0)
#define RSHC_OBS_FLOW_BEGIN(name, cat) (std::uint64_t{0})
#define RSHC_OBS_FLOW_END(name, cat, flow_id) ((void)(flow_id))
#define RSHC_OBS_HEARTBEAT(step, t, dt, zps) ((void)0)

#endif  // RSHC_OBS_ENABLED
