// Performance-regression suite (CI artifact + local tool). One binary,
// three workloads, one schema-versioned BENCH_perf.json:
//
//  1. Pinned SoA kernels (prim2cons / con2prim / flux_x / axpby): each rep
//     is timed individually into a TimeHist so the report carries real
//     p50/p90/p99, not just a mean.
//  2. Single-process SRHD Kelvin-Helmholtz run: exercises the instrumented
//     solver phases (solver.phase.exchange / rhs / update / c2p / other)
//     under the default host pipeline (RSHC_HOST_PIPELINE=device selects
//     the resident device offload instead).
//  3. Four-rank distributed KH run (run_world): each rank observes into
//     its own Registry via report::RankScope, and the per-rank snapshots
//     are merged into "dist."-prefixed rows with min/mean/max/imbalance
//     across ranks.
//  4. F8 accelerator crossover counters (perf.f8.*): where the staged and
//     resident con2prim offload modes reach host parity, against the
//     zones-per-step of workload 2 — see run_f8_crossover below.
//  5. Saturating simulation-service workload (run_serve): a 36-job mixed
//     queue (3 SRHD + 3 SRMHD problems, all three priority classes) on a
//     4-worker rshc::serve::SimulationService, distilled into the
//     service-level counters perf.serve.jobs_per_hour (bigger is better)
//     and perf.serve.p99_job_latency_ms (smaller is better), plus
//     "serve."-prefixed per-job phase roll-ups from the jobs' scoped
//     registries. RSHC_SERVE_ONLY=1 runs only workloads 1 and 5 — the
//     shape CI's perf-smoke lane uses for BENCH_perf_service.json.
//
// Output path comes from RSHC_PERF_OUT (default BENCH_perf.json). Compare
// two runs with tools/perf_report.py; CI's perf-smoke lane gates on the
// structural checks only, since container timings are noisy.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "rshc/common/error.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/device/device.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/obs/journal.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/obs/report.hpp"
#include "rshc/obs/telemetry.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/serve/riemann_cache.hpp"
#include "rshc/serve/service.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/kernels.hpp"

// Provenance baked in by bench/CMakeLists.txt; "unknown" for stray builds.
#ifndef RSHC_GIT_SHA
#define RSHC_GIT_SHA "unknown"
#endif
#ifndef RSHC_BUILD_TYPE
#define RSHC_BUILD_TYPE "unknown"
#endif
#ifndef RSHC_BUILD_FLAGS
#define RSHC_BUILD_FLAGS ""
#endif

namespace {

using namespace rshc;

constexpr double kGamma = 5.0 / 3.0;
constexpr int kRanks = 4;

/// Randomized SoA batch shared by all kernel reps (same layout as F5).
struct Soa {
  std::vector<double> rho, vx, vy, vz, p;
  std::vector<double> d, sx, sy, sz, tau;
  std::vector<double> o1, o2, o3, o4, o5;

  explicit Soa(std::size_t n) {
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> ur(0.5, 2.0);
    std::uniform_real_distribution<double> uv(-0.6, 0.6);
    for (auto* v : {&rho, &vx, &vy, &vz, &p, &d, &sx, &sy, &sz, &tau, &o1,
                    &o2, &o3, &o4, &o5}) {
      v->resize(n);
    }
    const eos::IdealGas eos(kGamma);
    for (std::size_t i = 0; i < n; ++i) {
      srhd::Prim w{ur(rng), uv(rng), uv(rng), uv(rng), ur(rng)};
      rho[i] = w.rho; vx[i] = w.vx; vy[i] = w.vy; vz[i] = w.vz; p[i] = w.p;
      const auto u = srhd::prim_to_cons(w, eos);
      d[i] = u.d; sx[i] = u.sx; sy[i] = u.sy; sz[i] = u.sz; tau[i] = u.tau;
    }
  }
};

/// Time `fn` `reps` times, one histogram sample per rep, so the report's
/// percentiles reflect the rep-to-rep spread the regression gate cares
/// about (a single total would hide multimodal noise).
template <typename Fn>
void bench_kernel(const char* name, int reps, Fn&& fn) {
  fn();  // warm-up
  obs::TimeHist& hist =
      obs::Registry::global().timer(std::string("perf.kernel.") + name);
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    hist.record_seconds(t.seconds());
  }
}

void run_kernels(bool quick) {
  const std::size_t n = quick ? 50000 : 200000;
  const int reps = quick ? 8 : 32;
  Soa b(n);
  const srhd::Con2PrimOptions opt;
  namespace kv = srhd::kernels::simd;

  bench_kernel("prim2cons", reps, [&] {
    kv::prim_to_cons_n(n, b.rho.data(), b.vx.data(), b.vy.data(),
                       b.vz.data(), b.p.data(), b.o1.data(), b.o2.data(),
                       b.o3.data(), b.o4.data(), b.o5.data(), kGamma);
  });
  bench_kernel("con2prim", reps, [&] {
    kv::cons_to_prim_n(n, b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(),
                       b.tau.data(), b.o1.data(), b.o2.data(), b.o3.data(),
                       b.o4.data(), b.o5.data(), kGamma, opt);
  });
  bench_kernel("flux_x", reps, [&] {
    kv::flux_n(n, 0, b.rho.data(), b.vx.data(), b.vy.data(), b.vz.data(),
               b.p.data(), b.d.data(), b.sx.data(), b.sy.data(),
               b.sz.data(), b.tau.data(), b.o1.data(), b.o2.data(),
               b.o3.data(), b.o4.data(), b.o5.data());
  });
  bench_kernel("axpby", reps, [&] {
    kv::axpby_n(n, 0.5, b.d.data(), 0.5, b.o1.data());
  });
}

/// Best-of-`reps` wall time of `fn`; the min filters scheduler noise the
/// way the crossover counters need (a single slow outlier must not move a
/// quantized crossover point).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Experiment F8 distilled into three report counters, so the perf report
/// (and `tools/perf_report.py compare`, which renders them as first-class
/// rows) tracks where each offload mode reaches the host-parity band
/// (>= 90% of host-simd con2prim throughput):
///
///   perf.f8.crossover_batch.staged   — smallest swept batch for the naive
///       offload (full upload/kernel/download round trip every call).
///   perf.f8.crossover_batch.resident — same for the persistent-residency
///       mode the FvSolver kDevice pipeline uses: state stays on the
///       device, only a halo slab moves per call, overlapped on a second
///       stream. This is the crossover the residency work exists to pull
///       into real step-size range.
///   perf.f8.kh_step_zones            — zone updates one step of this
///       suite's KH workload performs (interior zones x RK stages): the
///       "real" batch size a step hands the device, i.e. the bar the
///       resident crossover must clear.
///
/// 0 = never crossed within the sweep. Values are quantized to the x4
/// sweep, so the comparator can tolerate one-step timing jitter while
/// still catching a mode that drops out of the swept range entirely.
void run_f8_crossover(bool quick, std::int64_t kh_step_zones) {
  const std::array<std::size_t, 5> batches = {256, 1024, 4096, 16384, 65536};
  const int reps = quick ? 2 : 4;
  constexpr double kParityBand = 0.90;
  const srhd::Con2PrimOptions c2p_opt;

  std::int64_t staged_cross = 0;
  std::int64_t resident_cross = 0;
  for (const std::size_t n : batches) {
    Soa b(n);
    auto host_run = [&] {
      srhd::kernels::simd::cons_to_prim_n(
          n, b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(),
          b.tau.data(), b.o1.data(), b.o2.data(), b.o3.data(), b.o4.data(),
          b.o5.data(), kGamma, c2p_opt);
    };
    host_run();  // warm-up
    const double host_sec = best_seconds(reps, host_run);

    auto dev = device::make_device(device::Backend::kAccelSim, {});
    std::array<device::Buffer, 10> bufs;
    for (auto& buf : bufs) buf = dev->alloc(n);
    auto view = [&](int i) {
      return bufs[static_cast<std::size_t>(i)].device_view().data();
    };
    const auto o = c2p_opt;
    auto dev_kernel = [=] {
      srhd::kernels::simd::cons_to_prim_n(
          n, view(0), view(1), view(2), view(3), view(4), view(5), view(6),
          view(7), view(8), view(9), kGamma, o);
    };

    // Staged: the full state crosses the link in both directions per call.
    const double staged_sec = best_seconds(reps, [&] {
      dev->upload_async(b.d, bufs[0]);
      dev->upload_async(b.sx, bufs[1]);
      dev->upload_async(b.sy, bufs[2]);
      dev->upload_async(b.sz, bufs[3]);
      dev->upload_async(b.tau, bufs[4]);
      dev->launch(dev_kernel, n);
      dev->download_async(bufs[5], b.o1);
      dev->download_async(bufs[6], b.o2);
      dev->download_async(bufs[7], b.o3);
      dev->download_async(bufs[8], b.o4);
      dev->download_async(bufs[9], b.o5);
      dev->synchronize();
    });

    // Resident: state persists on the device (uploaded above); per call
    // only a halo slab moves, on the transfer stream while the kernel runs
    // on the compute stream — the kDevice pipeline's steady-state shape.
    const device::StreamId transfer = dev->create_stream();
    const std::size_t halo = bench::f8_halo_zones(n);
    std::vector<double> halo_host(halo, 1.0);
    device::Buffer halo_buf = dev->alloc(halo);
    const double resident_sec = best_seconds(reps, [&] {
      dev->download_async(halo_buf, halo_host, transfer);
      dev->upload_async(halo_host, halo_buf, transfer);
      dev->launch(dev_kernel, n);
      dev->synchronize();
    });

    const auto batch = static_cast<std::int64_t>(n);
    if (staged_cross == 0 && host_sec / staged_sec >= kParityBand) {
      staged_cross = batch;
    }
    if (resident_cross == 0 && host_sec / resident_sec >= kParityBand) {
      resident_cross = batch;
    }
  }

  RSHC_OBS_COUNT("perf.f8.crossover_batch.staged", staged_cross);
  RSHC_OBS_COUNT("perf.f8.crossover_batch.resident", resident_cross);
  RSHC_OBS_COUNT("perf.f8.kh_step_zones", kh_step_zones);
}

solver::SrhdSolver::Options kh_options() {
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  return opt;
}

/// Experiment F6b distilled into one report counter:
///
///   perf.f6.overlap_efficiency — how much shallower the latency-hiding
///       exchange's time-per-step slope vs injected message latency is
///       than the synchronous schedule's, in percent. Both schedules run
///       the same 4-rank KH workload at zero and at kLatency injected
///       per-message latency; slope = (t_lat - t_0) / latency per
///       schedule, efficiency = 100 * slope_sync / slope_overlap. 200
///       means the overlapped schedule absorbs half the latency the sync
///       schedule pays; the acceptance bar for the overlap work is >= 200.
///
/// Values are clamped to [100, 10000]: 100 (parity) when the sync slope
/// is noise-dominated, 10000 when the overlapped slope is too small to
/// measure — keeping the counter finite and the comparator's
/// bigger-is-better gate meaningful on shared runners.
void run_f6_overlap(bool quick) {
  // The grid stays at 48^2 even in quick mode: the interior work per RK
  // stage is what hides the injected latency, and shrinking it below the
  // latency window turns the counter into a noise measurement.
  const long long n = 48;
  const int steps = quick ? 6 : 10;
  const int reps = quick ? 2 : 3;
  constexpr double kLatency = 500e-6;
  const mesh::Grid grid = mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);
  const auto opt = kh_options();
  const double dt = 0.1 / static_cast<double>(n);

  auto per_step = [&](bool overlap, double latency_sec) {
    comm::TransferModel model;
    model.latency_sec = latency_sec;
    // Throwaway per-rank registries keep these extra solver runs out of
    // the report's solver.phase.* rows (workload 2 owns those).
    std::array<obs::Registry, kRanks> scratch;
    WallTimer t;
    comm::run_world(
        kRanks,
        [&](comm::Communicator& comm) {
          obs::ScopedRegistry scope(
              scratch[static_cast<std::size_t>(comm.rank())]);
          solver::DistributedSrhdSolver s(grid, comm, opt);
          s.set_overlap(overlap);
          s.initialize(problems::kelvin_helmholtz_ic({}));
          for (int i = 0; i < steps; ++i) s.step(dt);
        },
        model);
    return t.seconds() / steps;
  };
  auto best_per_step = [&](bool overlap, double latency_sec) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps; ++i) {
      best = std::min(best, per_step(overlap, latency_sec));
    }
    return best;
  };

  const double sync0 = best_per_step(false, 0.0);
  const double sync_lat = best_per_step(false, kLatency);
  const double overlap0 = best_per_step(true, 0.0);
  const double overlap_lat = best_per_step(true, kLatency);

  const double slope_sync = (sync_lat - sync0) / kLatency;
  const double slope_overlap = (overlap_lat - overlap0) / kLatency;
  std::int64_t efficiency = 100;
  if (slope_sync > 0.0) {
    const double floor = slope_sync / 100.0;  // caps the ratio at 100x
    const double ratio = slope_sync / std::max(slope_overlap, floor);
    efficiency = std::max<std::int64_t>(
        100, static_cast<std::int64_t>(ratio * 100.0 + 0.5));
  }
  RSHC_OBS_COUNT("perf.f6.overlap_efficiency", efficiency);
}

/// Single-process KH run; solver phases land in the current registry.
void run_solver(bool quick, solver::HostPipeline pipeline) {
  const long long n = quick ? 32 : 64;
  const int steps = quick ? 8 : 24;
  const mesh::Grid grid = mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);
  auto opt = kh_options();
  opt.pipeline = pipeline;
  solver::SrhdSolver s(grid, opt);
  s.initialize(problems::kelvin_helmholtz_ic({}));
  for (int i = 0; i < steps; ++i) s.step(s.compute_dt());
}

/// Four-rank distributed KH run. Each rank thread installs a RankScope so
/// its solver phases accumulate in its own registry; the caller merges the
/// snapshots into rank-resolved "dist." rows.
std::vector<obs::report::PhaseStats> run_distributed(bool quick) {
  const long long n = quick ? 32 : 64;
  const int steps = quick ? 6 : 16;
  const mesh::Grid grid = mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);

  std::array<obs::Registry, kRanks> rank_registries;
  std::array<obs::Snapshot, kRanks> rank_snaps;
  comm::run_world(kRanks, [&](comm::Communicator& comm) {
    const int r = comm.rank();
    obs::report::RankScope scope(
        rank_registries[static_cast<std::size_t>(r)], r);
    solver::DistributedSolver<solver::SrhdPhysics> ds(grid, comm,
                                                      kh_options());
    ds.initialize(problems::kelvin_helmholtz_ic({}));
    for (int i = 0; i < steps; ++i) ds.step(ds.compute_dt());
    rank_snaps[static_cast<std::size_t>(r)] =
        rank_registries[static_cast<std::size_t>(r)].snapshot();
  });
  return obs::report::phases_from_ranks(
      std::span<const obs::Snapshot>(rank_snaps), "dist.");
}

/// Saturating mixed workload through the simulation service: 36 jobs
/// (>= queue pressure on 4 workers throughout) spanning three SRHD and
/// three SRMHD problems and all three priority classes, the shock-tube
/// jobs validating against the shared exact-Riemann cache. Distilled into
/// two service-level gate counters:
///
///   perf.serve.jobs_per_hour      — completed jobs extrapolated to an
///       hour of wall time; the throughput the admission-control zone
///       budget exists to protect. Bigger is better.
///   perf.serve.p99_job_latency_ms — 99th-percentile submit-to-complete
///       latency across the batch, the tail the priority classes and
///       preemption shape. Smaller is better.
///
/// plus bookkeeping counters (jobs completed / preemptions / Riemann
/// cache hit+miss) and, on obs builds, "serve."-prefixed phase roll-ups
/// merged from the per-job scoped registries — min/mean/max/imbalance
/// across *jobs* the same way "dist." rows roll up across ranks.
std::vector<obs::report::PhaseStats> run_serve(bool quick) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  cfg.zone_budget = 1LL << 22;
  cfg.checkpoint_dir = "bench_results/serve_ckpt";
  serve::SimulationService svc(cfg);

  struct Mix {
    const char* problem;
    serve::PhysicsKind physics;
    long long resolution;
    int steps;
    bool validate;
  };
  const long long n1 = quick ? 48 : 96;   // 1D shock tubes
  const long long n2 = quick ? 12 : 24;   // 2D problems
  const int s1 = quick ? 6 : 16;
  const int s2 = quick ? 2 : 6;
  const Mix mixes[] = {
      {"sod", serve::PhysicsKind::kSrhd, n1, s1, true},
      {"mm1", serve::PhysicsKind::kSrhd, n1, s1, true},
      {"kh", serve::PhysicsKind::kSrhd, n2, s2, false},
      {"balsara1", serve::PhysicsKind::kSrmhd, n1, s1 / 2, false},
      {"mhd_blast", serve::PhysicsKind::kSrmhd, n2, s2, false},
      {"field_loop", serve::PhysicsKind::kSrmhd, n2, s2, false},
  };
  constexpr int kJobs = 36;

  serve::RiemannCache::global().clear();
  WallTimer wall;
  std::vector<serve::JobId> ids;
  for (int i = 0; i < kJobs; ++i) {
    const Mix& m = mixes[static_cast<std::size_t>(i) % std::size(mixes)];
    serve::JobSpec spec;
    spec.name = std::string(m.problem) + "_" + std::to_string(i);
    spec.problem = m.problem;
    spec.physics = m.physics;
    spec.resolution = m.resolution;
    spec.steps = m.steps;
    spec.validate = m.validate;
    spec.priority = (i % 8 == 7)   ? serve::Priority::kHigh
                    : (i % 3 == 0) ? serve::Priority::kBatch
                                   : serve::Priority::kNormal;
    const serve::Admission a = svc.submit(spec);
    RSHC_REQUIRE(a.admitted, "serve bench job rejected: " + a.reason);
    ids.push_back(a.id);
  }
  svc.wait_idle();
  const double elapsed = wall.seconds();

  std::vector<double> latencies;
  std::int64_t completed = 0;
  for (const serve::JobStatus& st : svc.statuses()) {
    RSHC_REQUIRE(st.state == serve::JobState::kCompleted,
                 "serve bench job did not complete: " + st.name + ": " +
                     st.message);
    if (st.latency_ms >= 0.0) latencies.push_back(st.latency_ms);
    ++completed;
  }
  const serve::ServiceStats stats = svc.stats();
  RSHC_REQUIRE(completed == kJobs && stats.completed == kJobs &&
                   stats.queued == 0 && stats.running == 0,
               "serve bench lost or duplicated jobs");

  std::sort(latencies.begin(), latencies.end());
  double p99 = 0.0;
  if (!latencies.empty()) {
    const auto idx = static_cast<std::size_t>(
        std::max<double>(0.0, std::ceil(0.99 * static_cast<double>(
                                            latencies.size())) -
                                  1.0));
    p99 = latencies[std::min(idx, latencies.size() - 1)];
  }
  RSHC_OBS_COUNT("perf.serve.jobs_per_hour",
                 static_cast<std::int64_t>(
                     static_cast<double>(completed) * 3600.0 /
                     std::max(elapsed, 1e-9)));
  RSHC_OBS_COUNT("perf.serve.p99_job_latency_ms",
                 std::max<std::int64_t>(1, std::llround(p99)));
  RSHC_OBS_COUNT("perf.serve.jobs_completed", completed);
  RSHC_OBS_COUNT("perf.serve.preemptions", stats.preempted);
  RSHC_OBS_COUNT("serve.riemann_cache.hits",
                 serve::RiemannCache::global().hits());
  RSHC_OBS_COUNT("serve.riemann_cache.misses",
                 serve::RiemannCache::global().misses());

#if RSHC_OBS_ENABLED
  const std::vector<obs::Snapshot> snaps = svc.job_snapshots();
  return obs::report::phases_from_ranks(
      std::span<const obs::Snapshot>(snaps), "serve.");
#else
  return {};
#endif
}

/// Steady-state solver throughput from the live-telemetry samples: the
/// median positive heartbeat rate (robust against the warm-up ramp and
/// the sampler catching an idle instant), falling back to the final
/// heartbeat when the sampler took no usable samples.
double steady_zones_per_sec(const obs::telemetry::Sampler& sampler) {
  std::vector<double> rates;
  for (const auto& s : sampler.samples()) {
    const obs::Snapshot::Entry* e =
        s.snapshot.find("solver.hb.zones_per_sec");
    if (e != nullptr && e->value > 0.0) rates.push_back(e->value);
  }
  if (rates.empty()) return obs::telemetry::last_heartbeat().zones_per_sec;
  auto mid = rates.begin() + static_cast<std::ptrdiff_t>(rates.size() / 2);
  std::nth_element(rates.begin(), mid, rates.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  // Live telemetry rides along with every suite run: journal provenance +
  // run bracket, the periodic sampler (RSHC_TELEMETRY_OUT for the JSONL
  // stream), and the stall watchdog (armed only when RSHC_WATCHDOG says
  // so). The steady-state throughput the sampler observes feeds the
  // regression comparator as perf.telemetry.steady_zones_per_sec.
  obs::journal::Journal::global().set_provenance(RSHC_GIT_SHA);
  obs::journal::run_start("perf_suite");
  obs::telemetry::Sampler sampler;  // options from RSHC_TELEMETRY_*
  sampler.start();
  obs::telemetry::Watchdog watchdog;  // options from RSHC_WATCHDOG*
  watchdog.start();

  // RSHC_SERVE_ONLY trims the suite to the kernel reps plus the service
  // workload — the shape the perf-smoke lane uses to emit the standalone
  // BENCH_perf_service.json without re-timing the solver workloads.
  const char* serve_env = std::getenv("RSHC_SERVE_ONLY");
  const bool serve_only =
      serve_env != nullptr && *serve_env != '\0' && serve_env[0] != '0';

  run_kernels(quick);
  std::vector<obs::report::PhaseStats> dist;
  if (!serve_only) {
    // Zone updates per KH step: interior zones x the 3 SSP-RK stages the
    // solver runs per step (solver.phase.* counts in any report confirm
    // the stage count: phase count / solver.steps).
    run_f8_crossover(quick, /*kh_step_zones=*/3 * (quick ? 32LL * 32LL
                                                         : 64LL * 64LL));
    run_f6_overlap(quick);
    // Primary solver run: the default host pipeline, overridable via
    // RSHC_HOST_PIPELINE (batched-simd | device) so CI can emit one
    // report per pipeline setting from the same binary — the device
    // report (BENCH_perf_device.json) exercises the resident offload
    // end-to-end, worker-thread kernel phases and transfer byte counters
    // included.
    solver::HostPipeline pipeline = solver::SrhdSolver::Options{}.pipeline;
    const char* pipe_env = std::getenv("RSHC_HOST_PIPELINE");
    if (pipe_env != nullptr && *pipe_env != '\0') {
      pipeline = solver::parse_host_pipeline(pipe_env);
    }
    run_solver(quick, pipeline);
    dist = run_distributed(quick);
  }
  std::vector<obs::report::PhaseStats> serve_phases = run_serve(quick);

  // Freeze telemetry before the report snapshot so the steady-throughput
  // counter lands in this report's counter table.
  watchdog.stop();
  sampler.stop();
  const double steady = steady_zones_per_sec(sampler);
  if (steady > 0.0) {
    RSHC_OBS_COUNT("perf.telemetry.steady_zones_per_sec",
                   static_cast<std::int64_t>(steady));
  }

  obs::report::RunReport rep;
  rep.suite = "perf_suite";
  rep.git_sha = RSHC_GIT_SHA;
  rep.build_type = RSHC_BUILD_TYPE;
  rep.build_flags = RSHC_BUILD_FLAGS;
  rep.ranks = kRanks;
  rep.hardware = obs::report::probe_hardware();

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  rep.phases = obs::report::phases_from_snapshot(snap);
  rep.phases.insert(rep.phases.end(), dist.begin(), dist.end());
  rep.phases.insert(rep.phases.end(), serve_phases.begin(),
                    serve_phases.end());
  rep.counters = obs::report::counters_from_snapshot(snap);

  const char* out_env = std::getenv("RSHC_PERF_OUT");
  const std::string out =
      (out_env != nullptr && *out_env != '\0') ? out_env : "BENCH_perf.json";
  rep.write_file(out);
  std::cout << "[perf report: " << out << " | " << rep.phases.size()
            << " phases, " << rep.counters.size() << " counters]\n";

  // Honor the usual RSHC_DUMP_* env switches next to the bench CSVs.
  obs::maybe_dump("bench_results/perf_suite");
  obs::journal::run_end("perf_suite");
  return 0;
}
