#pragma once
// SimulationService (DESIGN.md system: simulation service): a long-lived
// job queue driving many scenario runs over one ThreadPool.
//
//  - Admission control: a bounded submission queue plus an aggregate
//    interior-zone budget; submit() rejects with a reason instead of
//    blocking, so callers can shed load.
//  - Priority scheduling: three classes (batch < normal < high); workers
//    always pop the highest class, FIFO within a class. When every worker
//    is busy, admitting a higher-class job marks the lowest-class running
//    job for preemption.
//  - Preempt / warm resume: a preempted job checkpoints through
//    io::write_checkpoint and re-enters the queue; on re-dispatch it
//    restores via io::read_checkpoint and continues bitwise-identically
//    to an uninterrupted run (fixed step budget, deterministic dt).
//  - Isolation: with RSHC_OBS on, each job's solver metrics accumulate in
//    a per-job obs::Registry (installed thread-locally while the job
//    runs), and every lifecycle transition is journaled.
//  - Stall detection: each *running* job is a source of the process's one
//    stall watchdog (parallel/watchdog.hpp), registered when a worker takes
//    the job and unregistered when it leaves kRunning, so an idle queued
//    job can neither fire nor mask a stall warning. A job stall is counted
//    and journaled, never fatal; with no Watchdog running nothing scans.
//
// Configuration comes from ServiceConfig.

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rshc/common/mutex.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/serve/job.hpp"

#ifndef RSHC_OBS_ENABLED
#define RSHC_OBS_ENABLED 1
#endif
#if RSHC_OBS_ENABLED
#include "rshc/obs/metrics.hpp"
#endif

#include <condition_variable>

namespace rshc::serve {

struct ServiceConfig {
  unsigned workers = 2;           ///< concurrent jobs (>= 1)
  std::size_t queue_capacity = 32;  ///< max jobs waiting for a worker
  /// Aggregate interior-zone budget over queued + running jobs; a job's
  /// zones are held from admission until its terminal state.
  long long zone_budget = 1LL << 22;
  /// Directory for preemption checkpoints (created on construction).
  std::string checkpoint_dir = "serve_ckpt";
};

class SimulationService {
 public:
  explicit SimulationService(ServiceConfig cfg = {});
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Admit or reject a job. Never blocks on queue pressure — a full queue
  /// or exhausted zone budget is an immediate reject-with-reason.
  [[nodiscard]] Admission submit(const JobSpec& spec) RSHC_EXCLUDES(mutex_);

  /// Ask the (running) job to preempt at its next step boundary; it will
  /// checkpoint and requeue. False when `id` is not currently running.
  bool preempt(JobId id) RSHC_EXCLUDES(mutex_);

  /// Block until `id` reaches a terminal state; returns its final status.
  /// Throws rshc::Error for unknown ids.
  JobStatus wait(JobId id) RSHC_EXCLUDES(mutex_);
  /// Block until no job is queued or running.
  void wait_idle() RSHC_EXCLUDES(mutex_);

  [[nodiscard]] std::optional<JobStatus> status(JobId id) const
      RSHC_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<JobStatus> statuses() const RSHC_EXCLUDES(mutex_);
  [[nodiscard]] ServiceStats stats() const RSHC_EXCLUDES(mutex_);

  /// Stop accepting work and cancel every queued job (running jobs finish,
  /// including preempted jobs already requeued). Idempotent; the
  /// destructor calls it.
  void shutdown() RSHC_EXCLUDES(mutex_);

#if RSHC_OBS_ENABLED
  /// Per-job registry snapshots, in job-id order (isolation view: each
  /// entry holds only the metrics its job's worker thread recorded).
  [[nodiscard]] std::vector<obs::Snapshot> job_snapshots() const
      RSHC_EXCLUDES(mutex_);
  [[nodiscard]] std::optional<obs::Snapshot> job_snapshot(JobId id) const
      RSHC_EXCLUDES(mutex_);
#endif

 private:
  struct Job;
  using JobPtr = std::shared_ptr<Job>;

  void worker_loop() RSHC_EXCLUDES(mutex_);
  void run_job(const JobPtr& job) RSHC_EXCLUDES(mutex_);
  /// The running job's stall callback (watchdog thread, no lock held).
  void on_job_stall(Job& job, std::int64_t idle_ms);

  ServiceConfig cfg_;

  mutable Mutex mutex_;
  std::condition_variable work_cv_;  ///< queue push / shutdown
  std::condition_variable done_cv_;  ///< terminal transitions / idleness
  std::map<JobId, JobPtr> jobs_ RSHC_GUARDED_BY(mutex_);
  std::vector<JobPtr> queue_ RSHC_GUARDED_BY(mutex_);
  JobId next_id_ RSHC_GUARDED_BY(mutex_) = 1;
  std::int64_t next_seq_ RSHC_GUARDED_BY(mutex_) = 0;
  bool stopping_ RSHC_GUARDED_BY(mutex_) = false;
  int idle_workers_ RSHC_GUARDED_BY(mutex_) = 0;
  int running_ RSHC_GUARDED_BY(mutex_) = 0;
  long long zones_admitted_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t submitted_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t admitted_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t rejected_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t completed_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t failed_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t cancelled_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t preempted_ RSHC_GUARDED_BY(mutex_) = 0;
  std::int64_t resumed_ RSHC_GUARDED_BY(mutex_) = 0;
  // relaxed: bumped by the watchdog thread's stall callback, read by
  // stats(); a count, no ordering needed.
  std::atomic<std::int64_t> stalled_{0};

  // Declared last so any future member initialization precedes worker
  // startup; shutdown() quiesces workers before reset() joins them.
  std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace rshc::serve
