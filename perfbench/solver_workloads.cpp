// The two serial solver workloads, kh-srhd and blast-srmhd: one FvSolver
// stepped with FvSolver::step on the default host pipeline, in episodes
// that restart from the seeded initial data so every timed step sees the
// same regime no matter how long the run is.

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layer_probe.hpp"
#include "rshc/mesh/boundary.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/time/integrator.hpp"

namespace perfbench {
namespace {

namespace sv = rshc::solver;

/// blast-srmhd's floor bound: floored c2p calls per c2p call in an episode.
constexpr double kMaxFlooredFrac = 1e-3;

template <typename Physics>
struct SolverCase {
  using Solver = sv::FvSolver<Physics>;
  rshc::mesh::Grid grid;
  typename Solver::Options opt;
  std::function<typename Physics::Prim(double, double, double)> ic;
  int episode_steps = 0;
  /// Correctness checks on the state after `steps` steps of an episode;
  /// `start` is total_cons() right after initialize. Returns an empty
  /// string or the first failed check.
  std::function<std::string(const Solver&, const typename Physics::Cons& start,
                            int steps)>
      check;
};

/// Every interior prim and cons value finite; with `physical`, also
/// rho > 0, p > 0 and |v| < 1.
template <typename Physics>
std::string check_states(const sv::FvSolver<Physics>& s, bool physical) {
  const auto& blk = s.block(0);
  for (int j = blk.begin(1); j < blk.end(1); ++j) {
    for (int i = blk.begin(0); i < blk.end(0); ++i) {
      for (int v = 0; v < Physics::kNumPrim; ++v) {
        if (!std::isfinite(blk.prim()(v, 0, j, i)) ||
            !std::isfinite(blk.cons()(v, 0, j, i))) {
          return "non-finite state at zone (" + std::to_string(i) + ", " +
                 std::to_string(j) + ")";
        }
      }
      if (!physical) continue;
      const auto p = Physics::load_prim(blk.prim(), 0, j, i);
      if (!(p.rho > 0.0) || !(p.p > 0.0) ||
          !(p.vx * p.vx + p.vy * p.vy + p.vz * p.vz < 1.0)) {
        return "unphysical state at zone (" + std::to_string(i) + ", " +
               std::to_string(j) + ")";
      }
    }
  }
  return {};
}

template <typename Physics>
Result run_solver_case(const SolverCase<Physics>& c, const RunOptions& o) {
  using Solver = sv::FvSolver<Physics>;
  Result r;
  std::unique_ptr<Solver> s;
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    s.reset();
    setup.push_back(time_call([&] {
      s = std::make_unique<Solver>(c.grid, c.opt);
      s->initialize(c.ic);
    }));
  }
  const int stages = rshc::time::num_stages(c.opt.integrator);
  const double zones = static_cast<double>(c.grid.num_cells());
  LayerProbe<Physics> probe(*s, /*time_ghosts=*/true);

  // One episode: restart from the initial data, take up to episode_steps
  // steps (fewer if the phase's deadline passes), check the end state.
  auto episode = [&](StepLog* log, Clock::time_point start,
                     Clock::time_point deadline, bool probed) -> int {
    s->initialize(c.ic);
    const auto cons0 = s->total_cons();
    int n = 0;
    while (n < c.episode_steps) {
      double t = time_call([&] { s->step(s->compute_dt()); });
      if (o.slowdown > 1.0) {
        spin_for(t * (o.slowdown - 1.0));
        t *= o.slowdown;
      }
      ++n;
      if (log != nullptr) {
        log->add(seconds_since(start), t, zones * stages);
        if (Clock::now() >= deadline) break;
      }
    }
    r.attempted += n;
    if (std::string why = c.check(*s, cons0, n); !why.empty()) r.fail(why, n);
    if (probed && !probe.run(2)) {
      r.fail("riemann solver has no batched kernel", 1);
    }
    return n;
  };

  // Warm-up episode: untimed, and the source of the exact work counts
  // (a full episode from the seeded state is deterministic).
  const int warm = episode(nullptr, Clock::now(), Clock::now(), false);
  const auto& st = s->c2p_stats();
  const double c2p_calls = zones * stages * warm;
  const double iters_per_zone =
      static_cast<double>(st.total_iterations) / c2p_calls;
  const double floored_per_mzone =
      static_cast<double>(st.floored_zones) * 1.0e6 / c2p_calls;

  auto measure = [&](double seconds, bool probed) {
    StepLog log;
    const auto start = Clock::now();
    const auto deadline = start + to_duration(seconds);
    while (Clock::now() < deadline) episode(&log, start, deadline, probed);
    return log;
  };

  if (!o.trace) {
    const StepLog log = measure(o.seconds, false);
    report_end_to_end(log.ops, o.seconds, /*serial=*/true, r);
    report_setup(setup, r);
  } else {
    // Half the time untraced, half with the layer probe between episodes;
    // the throughput difference is the tracing overhead.
    const StepLog plain = measure(0.5 * o.seconds, false);
    const StepLog traced = measure(0.5 * o.seconds, true);
    probe.report(r, median(traced.latencies()), stages);
    r.metrics["c2p.iters_per_zone"] = iters_per_zone;
    r.metrics["c2p.floored_per_mzone"] = floored_per_mzone;
    r.metrics["work.zones"] = zones;
    r.metrics["work.faces"] = static_cast<double>(probe.faces());
    r.metrics["trace.overhead_frac"] =
        1.0 - traced.zone_updates_per_s() / plain.zone_updates_per_s();
    r.info["latency_samples"] = static_cast<double>(traced.ops.size());
  }
  return r;
}

}  // namespace

// kh-srhd: smooth, low-Lorentz-factor shear layer, so c2p is about half of
// every step; periodic, so D and tau are conserved to round-off and no
// zone may hit the atmosphere floor.
Result run_kh_srhd(const RunOptions& o) {
  Rng rng(o.seed);
  rshc::problems::KelvinHelmholtz kh;
  kh.shear_velocity = rng.uniform(0.24, 0.26);
  kh.layer_width = rng.uniform(0.045, 0.055);
  kh.perturb_amplitude = rng.uniform(0.009, 0.011);

  SolverCase<sv::SrhdPhysics> c{
      rshc::mesh::Grid::make_2d(128, 128, -0.5, 0.5, -0.5, 0.5), {}, {}, 40,
      {}};
  c.opt.recon = rshc::recon::Method::kPLMMC;
  c.opt.physics.riemann = rshc::riemann::Solver::kHLL;
  c.opt.physics.eos = rshc::eos::IdealGas(4.0 / 3.0);
  c.opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kPeriodic);
  c.ic = rshc::problems::kelvin_helmholtz_ic(kh);
  c.check = [](const sv::SrhdSolver& s, const rshc::srhd::Cons& start,
               int) -> std::string {
    const auto end = s.total_cons();
    constexpr double kTol = 1e-12;  // relative; round-off is ~1e-15
    if (std::abs(end.d - start.d) > kTol * std::abs(start.d) ||
        std::abs(end.tau - start.tau) > kTol * std::abs(start.tau)) {
      return "D or tau not conserved";
    }
    if (s.c2p_stats().floored_zones != 0) return "floored zones in KH";
    return check_states(s, false);
  };
  return run_solver_case(c, o);
}

// blast-srmhd: 9 variables and a strong magnetized shock, so the rhs
// dominates and c2p is the SRMHD Newton solve including floor hits.
Result run_blast_srmhd(const RunOptions& o) {
  Rng rng(o.seed);
  rshc::problems::MhdBlast2d b;
  b.r_inner = rng.uniform(0.095, 0.105);
  b.p_inner = rng.uniform(0.95, 1.05);
  b.bx = rng.uniform(0.095, 0.105);

  SolverCase<sv::SrmhdPhysics> c{
      rshc::mesh::Grid::make_2d(96, 96, -1.0, 1.0, -1.0, 1.0), {}, {}, 40, {}};
  c.opt.recon = rshc::recon::Method::kPLMMC;
  c.opt.physics.eos = rshc::eos::IdealGas(5.0 / 3.0);
  c.opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kOutflow);
  c.ic = rshc::problems::mhd_blast2d_ic(b);
  c.check = [](const sv::SrmhdSolver& s, const rshc::srmhd::Cons&,
               int steps) -> std::string {
    const double c2p_calls =
        static_cast<double>(s.grid().num_cells()) *
        rshc::time::num_stages(s.options().integrator) * steps;
    if (static_cast<double>(s.c2p_stats().floored_zones) >
        kMaxFlooredFrac * c2p_calls) {
      return "too many floored zones in the blast";
    }
    return check_states(s, true);
  };
  return run_solver_case(c, o);
}

}  // namespace perfbench
