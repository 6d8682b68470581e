// serve-mix: a closed loop on a 2-worker SimulationService. One client
// thread keeps kOutstanding jobs in flight (more than the workers, so a
// queue always waits) and submits the next job of a seeded sequence as
// soon as one reaches a terminal state. A closed loop limits itself: a host
// that loses cores yields lower throughput, not a growing queue.
//
// Jobs are short, so per-job setup, queue wait, checkpoint I/O (every
// high-priority job arriving at a busy service preempts a lower one: a
// checkpoint write, later a warm restore) and exact-Riemann validation are
// a large share of a job's latency. Three threads: two workers, the client.
//
// The service keeps every job's record (and, with obs on, its metrics
// registry) for its lifetime, so memory grows with jobs served. The loop
// therefore serves fixed sessions of kSessionJobs jobs per service
// instance: peak memory then measures a session, not the throughput.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rshc/serve/riemann_cache.hpp"
#include "rshc/serve/scenario.hpp"
#include "rshc/serve/service.hpp"

namespace perfbench {
namespace {

namespace sr = rshc::serve;

constexpr unsigned kWorkers = 2;
constexpr int kOutstanding = 4;
constexpr int kSessionJobs = 256;
constexpr double kWarmupSec = 0.5;
constexpr double kMaxL1 = 0.02;  // validation jobs' L1 density error bound

struct JobClass {
  const char* problem;
  sr::PhysicsKind physics;
  long long resolution;
  int steps;
  bool validate;
};

// Per-step zone counts are comparable across the 1D and 2D classes.
constexpr JobClass kClasses[] = {
    {"sod", sr::PhysicsKind::kSrhd, 1024, 24, true},
    {"mm1", sr::PhysicsKind::kSrhd, 1024, 24, true},
    {"mm2", sr::PhysicsKind::kSrhd, 1024, 24, true},
    {"kh", sr::PhysicsKind::kSrhd, 32, 12, false},
    {"blast2d", sr::PhysicsKind::kSrhd, 32, 12, false},
    {"balsara1", sr::PhysicsKind::kSrmhd, 1024, 24, false},
    {"mhd_blast", sr::PhysicsKind::kSrmhd, 32, 12, false},
    {"field_loop", sr::PhysicsKind::kSrmhd, 32, 12, false},
};
constexpr int kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

sr::JobSpec spec_of(int cls, sr::Priority prio) {
  const JobClass& c = kClasses[cls];
  sr::JobSpec s;
  s.name = c.problem;
  s.problem = c.problem;
  s.physics = c.physics;
  s.resolution = c.resolution;
  s.steps = c.steps;
  s.validate = c.validate;
  s.priority = prio;
  return s;
}

[[nodiscard]] long long zone_updates(int cls) {
  const JobClass& c = kClasses[cls];
  const long long zones = sr::spec_zones(spec_of(cls, sr::Priority::kNormal));
  return zones * 3 * c.steps;  // catalog jobs use SSP-RK3
}

/// The seeded job sequence: blocks of 16 jobs holding every class twice in
/// a shuffled order, with 2 high and 14 normal priorities shuffled
/// independently. Fixed class and priority shares keep runs comparable.
class JobSequence {
 public:
  explicit JobSequence(std::uint64_t seed) : rng_(seed) {}

  std::pair<int, sr::Priority> next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

 private:
  void refill() {
    std::vector<int> cls;
    for (int c = 0; c < kNumClasses; ++c) cls.insert(cls.end(), {c, c});
    std::vector<sr::Priority> prio(2, sr::Priority::kHigh);
    prio.insert(prio.end(), 14, sr::Priority::kNormal);
    rng_.shuffle(cls);
    rng_.shuffle(prio);
    block_.clear();
    for (std::size_t i = 0; i < cls.size(); ++i) {
      block_.emplace_back(cls[i], prio[i]);
    }
    pos_ = 0;
  }

  Rng rng_;
  std::vector<std::pair<int, sr::Priority>> block_;
  std::size_t pos_ = 0;
};

struct LoopLog {
  std::vector<OpSample> done;  ///< jobs that finished inside the window
  std::vector<int> cls, preempts;  ///< of the same jobs
  std::vector<double> submit_s;
  double window_s = 0.0;

  [[nodiscard]] double zone_updates_per_s() const {
    double zu = 0.0;
    for (const OpSample& op : done) zu += op.zone_updates;
    return zu / window_s;
  }
};

/// Isolated cost of each job class, run on the client thread with the
/// service idle: engine build + initialize + steps (+ validation), and the
/// checkpoint write/read a preemption costs.
struct Isolated {
  std::map<int, double> run_s;
  std::vector<double> write_s, read_s, validate_s, ckpt_mb;
};

Isolated measure_isolated(const std::string& dir) {
  Isolated iso;
  sr::RiemannCache cache;  // keeps the service's global cache stats clean
  const std::string path = dir + "/isolated.ckpt";
  for (int cls = 0; cls < kNumClasses; ++cls) {
    const sr::JobSpec spec = spec_of(cls, sr::Priority::kNormal);
    std::vector<double> run;
    for (int rep = 0; rep < 3; ++rep) {
      std::unique_ptr<sr::ScenarioEngine> e;
      double t = time_call([&] {
        e = sr::make_engine(spec);
        e->initialize();
        for (int i = 0; i < spec.steps; ++i) e->step();
      });
      if (spec.validate) {
        const double v = time_call([&] { (void)e->validation_error(cache); });
        iso.validate_s.push_back(v);
        t += v;
      }
      run.push_back(t);
      iso.write_s.push_back(time_call([&] { e->checkpoint(path); }));
      iso.read_s.push_back(time_call([&] { e->restore(path); }));
    }
    iso.run_s[cls] = median(run);
    iso.ckpt_mb.push_back(
        static_cast<double>(std::filesystem::file_size(path)) / 1.0e6);
  }
  std::filesystem::remove(path);
  return iso;
}

}  // namespace

Result run_serve_mix(const RunOptions& o) {
  Result r;
  const std::string dir = o.workdir + "/serve_ckpt";
  sr::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.checkpoint_dir = dir;

  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    std::unique_ptr<sr::SimulationService> svc;
    setup.push_back(time_call(
        [&] { svc = std::make_unique<sr::SimulationService>(cfg); }));
  }
  Isolated iso;
  if (o.trace) iso = measure_isolated(dir);

  sr::RiemannCache::global().clear();
  JobSequence seq(o.seed);
  std::unique_ptr<sr::SimulationService> svc;
  int session_submitted = 0;
  struct InFlight {
    sr::JobId id;
    int cls;
  };
  std::vector<InFlight> flight;

  auto check = [&](const sr::JobStatus& st, int cls) {
    ++r.attempted;
    if (st.state != sr::JobState::kCompleted) {
      r.fail("job " + st.name + " ended " +
                 std::string(sr::job_state_name(st.state)) + ": " + st.message,
             1);
    } else if (kClasses[cls].validate) {
      if (!(st.l1_error >= 0.0 && st.l1_error < kMaxL1)) {
        r.fail("validation job " + st.name + " L1 error " +
                   std::to_string(st.l1_error),
               1);
      }
    }
  };

  // Drain the session, check what is left, the service's conservation
  // invariant, and retire the service.
  auto end_session = [&] {
    svc->wait_idle();
    for (const InFlight& f : flight) {
      if (const auto st = svc->status(f.id)) check(*st, f.cls);
    }
    flight.clear();
    const sr::ServiceStats s = svc->stats();
    if (s.admitted != s.completed + s.failed + s.cancelled + s.queued +
                          s.running ||
        s.submitted != s.admitted + s.rejected) {
      r.fail("ServiceStats conservation invariant violated", 1);
    }
    r.info["preempted"] += static_cast<double>(s.preempted);
    svc.reset();
  };

  // Runs the closed loop for `seconds` after a warm-up; jobs finishing
  // inside the window are the samples.
  auto loop = [&](double seconds, bool timed_submits) {
    LoopLog log;
    log.window_s = seconds;
    const auto t0 = Clock::now();
    for (;;) {
      const double now = seconds_since(t0);
      if (now >= kWarmupSec + seconds) break;
      if (!svc) {
        svc = std::make_unique<sr::SimulationService>(cfg);
        session_submitted = 0;
      }
      while (static_cast<int>(flight.size()) < kOutstanding &&
             session_submitted < kSessionJobs) {
        const auto [cls, prio] = seq.next();
        const sr::JobSpec spec = spec_of(cls, prio);
        sr::Admission a;
        const double ts = time_call([&] { a = svc->submit(spec); });
        ++session_submitted;
        if (timed_submits) log.submit_s.push_back(ts);
        if (!a.admitted) {
          ++r.attempted;
          r.fail("job rejected: " + a.reason, 1);
          continue;
        }
        flight.push_back({a.id, cls});
      }
      bool any = false;
      for (std::size_t i = 0; i < flight.size();) {
        const auto st = svc->status(flight[i].id);
        if (!st || st->state == sr::JobState::kQueued ||
            st->state == sr::JobState::kRunning) {
          ++i;
          continue;
        }
        any = true;
        check(*st, flight[i].cls);
        const double at = seconds_since(t0) - kWarmupSec;
        if (at >= 0.0 && st->state == sr::JobState::kCompleted) {
          const auto zu = static_cast<double>(zone_updates(flight[i].cls));
          log.done.push_back({at, st->latency_ms * 1e-3, zu});
          log.cls.push_back(flight[i].cls);
          log.preempts.push_back(st->preempts);
        }
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      }
      if (flight.empty() && session_submitted == kSessionJobs) {
        end_session();
      } else if (!any) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return log;
  };

  if (!o.trace) {
    const LoopLog log = loop(o.seconds, false);
    report_end_to_end(log.done, o.seconds, /*serial=*/false, r);
    report_setup(setup, r);
  } else {
    const LoopLog plain = loop(0.5 * o.seconds, false);
    const LoopLog traced = loop(0.5 * o.seconds, true);
    std::vector<double> wait_ms;
    double preempts = 0.0;
    for (std::size_t i = 0; i < traced.done.size(); ++i) {
      wait_ms.push_back(
          (traced.done[i].latency_s - iso.run_s.at(traced.cls[i])) * 1e3);
      preempts += traced.preempts[i];
    }
    const auto& cache = sr::RiemannCache::global();
    const double lookups =
        static_cast<double>(cache.hits() + cache.misses());
    r.metrics["serve.submit_us"] = median(traced.submit_s) * 1e6;
    r.metrics["serve.queue_wait_ms_p50"] = median(wait_ms);
    r.metrics["serve.preemptions_per_job"] =
        preempts / static_cast<double>(traced.done.size());
    r.metrics["io.checkpoint_write_ms"] = median(iso.write_s) * 1e3;
    r.metrics["io.checkpoint_read_ms"] = median(iso.read_s) * 1e3;
    r.metrics["io.checkpoint_mb"] = median(iso.ckpt_mb);
    r.metrics["analysis.validate_ms"] = median(iso.validate_s) * 1e3;
    r.metrics["riemann_cache.hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(cache.hits()) / lookups : 0.0;
    r.metrics["trace.overhead_frac"] =
        1.0 - traced.zone_updates_per_s() / plain.zone_updates_per_s();
    r.info["latency_samples"] = static_cast<double>(traced.done.size());
  }
  // The jobs in flight at the deadline finish outside the window but are
  // still checked.
  if (svc) end_session();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

}  // namespace perfbench
