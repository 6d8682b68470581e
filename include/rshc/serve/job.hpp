#pragma once
// rshc::serve job model (DESIGN.md system: simulation service). A JobSpec
// is one scenario request — problem x physics x scheme x resolution —
// plus scheduling attributes (priority class, fixed step budget) and
// optional validation/output requests. The service assigns a
// JobId at admission and reports progress through JobStatus / ServiceStats.

#include <cstdint>
#include <string>
#include <string_view>

#include "rshc/recon/reconstruct.hpp"
#include "rshc/riemann/riemann.hpp"

namespace rshc::serve {

/// Job identifier handed out at admission; 0 is never a valid id.
using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = 0;

/// Physics system a job runs under (selects the FvSolver instantiation).
enum class PhysicsKind { kSrhd, kSrmhd };

[[nodiscard]] std::string_view physics_name(PhysicsKind k);
/// Parse "srhd" | "srmhd".
[[nodiscard]] PhysicsKind parse_physics(std::string_view name);

/// Scheduling class. Higher classes are dispatched first and may preempt
/// a running lower-class job when no worker is idle (the victim is
/// checkpointed and requeued; see SimulationService).
enum class Priority { kBatch = 0, kNormal = 1, kHigh = 2 };

[[nodiscard]] std::string_view priority_name(Priority p);

/// Job lifecycle. A preempted job goes back to kQueued (its preempt /
/// resume counts live in JobStatus); the terminal states are kCompleted,
/// kFailed, and kCancelled.
enum class JobState { kQueued, kRunning, kCompleted, kFailed, kCancelled };

[[nodiscard]] std::string_view job_state_name(JobState s);

/// One scenario request. The problem catalog (scenario.hpp) maps
/// `problem` to a grid, boundary conditions, and initial data; everything
/// else plugs straight into FvSolver<Physics>::Options.
struct JobSpec {
  std::string name = "job";
  std::string problem = "sod";  ///< catalog key, see scenario.hpp
  PhysicsKind physics = PhysicsKind::kSrhd;
  long long resolution = 64;  ///< cells per axis
  int steps = 16;             ///< fixed step budget (termination criterion)
  Priority priority = Priority::kNormal;
  recon::Method recon = recon::Method::kPLMMC;
  riemann::Solver riemann = riemann::Solver::kHLLC;  ///< SRHD only
  double cfl = 0.4;
  /// Validation-class job: after the final step, compute the L1 density
  /// error against the shared exact-Riemann reference (RiemannCache).
  /// Only supported for the SRHD shock-tube problems.
  bool validate = false;
  /// When non-empty, write a checkpoint of the final state here — the
  /// job's result artifact (and the bitwise preempt/resume test hook).
  std::string result_checkpoint;
  /// Artificial per-step delay. Test/chaos knob: makes short jobs
  /// preemptible and stall-detectable at deterministic points. 0 in
  /// production specs.
  int step_delay_ms = 0;
};

/// submit() outcome. Rejections never enter the job table; `reason` names
/// the admission rule that fired (queue capacity, zone budget, unknown
/// problem, unsupported validation, shutdown).
struct Admission {
  bool admitted = false;
  JobId id = kInvalidJob;
  std::string reason;  ///< empty when admitted
};

/// Point-in-time view of one job (status()/wait()/statuses()).
struct JobStatus {
  JobId id = kInvalidJob;
  std::string name;
  JobState state = JobState::kQueued;
  Priority priority = Priority::kNormal;
  int steps_done = 0;
  int steps_total = 0;
  int preempts = 0;  ///< times evicted mid-run
  int resumes = 0;   ///< times warm-restarted from the eviction checkpoint
  int stalls = 0;    ///< per-job stall-monitor firings while running
  /// submit -> terminal-state wall latency; -1 while the job is live.
  double latency_ms = -1.0;
  /// Validation L1 density error; -1 when not a validation job (or not
  /// finished).
  double l1_error = -1.0;
  std::string message;  ///< failure reason for kFailed
};

/// Service-wide counters (stats()). Conservation invariant for any quiesced
/// service: admitted == completed + failed + cancelled + queued + running.
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t preempted = 0;
  std::int64_t resumed = 0;
  std::int64_t stalled = 0;
  long long zones_admitted = 0;  ///< zones currently held against the budget
  int queued = 0;
  int running = 0;
};

}  // namespace rshc::serve
