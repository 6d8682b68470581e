// Experiment F9 — per-phase cost breakdown (figure/table).
// Where does a step's wall time go? Exchange (halos + BCs), RHS
// (reconstruction + Riemann + flux differencing), update (the RK
// combination), con2prim (the batched Newton solve) and bookkeeping — per
// reconstruction scheme and per physics system, as shares of the step and
// as ns per zone per step.
//
// Expected shape: RHS dominates everywhere and grows with reconstruction
// order (WENO5 >> PCM); con2prim is the next largest phase, and SRMHD pays
// more in both RHS (9 variables, GLM) and con2prim (1D-W solve); exchange
// stays a few percent at this surface-to-volume ratio.

#include "exp_common.hpp"

namespace {

/// Phase seconds for one measured run, read back from the obs registry's
/// solver.phase.* timers (disjoint: update is the RK combination alone).
struct RegistryPhases {
  double exchange = 0.0;
  double rhs = 0.0;
  double update = 0.0;
  double c2p = 0.0;
  double other = 0.0;
  [[nodiscard]] double total() const {
    return exchange + rhs + update + c2p + other;
  }
};

/// Run the measured loop and read its phase split back from the registry.
template <typename Solver>
RegistryPhases measure_phases(Solver& s, int nsteps) {
  s.step(s.compute_dt());  // warm-up outside the measurement
  auto& registry = rshc::obs::Registry::global();
  registry.reset();
  for (int i = 0; i < nsteps; ++i) s.step(s.compute_dt());
  const auto snap = registry.snapshot();
  return {snap.value_or("solver.phase.exchange"),
          snap.value_or("solver.phase.rhs"),
          snap.value_or("solver.phase.update"),
          snap.value_or("solver.phase.c2p"),
          snap.value_or("solver.phase.other")};
}

}  // namespace

int main() {
  using namespace rshc;
  if (RSHC_OBS_ENABLED == 0 || !obs::enabled()) {
    // The solver.phase.* timers are the only phase clocks there are.
    std::cerr << "exp_f9_phase_breakdown: needs the obs layer (a build "
                 "with RSHC_OBS=ON, run without RSHC_OBS=0); no table\n";
    return 1;
  }
  constexpr long long kN = 96;
  constexpr int kSteps = 10;

  Table table({"system", "recon", "exchange_pct", "rhs_pct", "update_pct",
               "c2p_pct", "other_pct", "exchange_ns", "rhs_ns", "update_ns",
               "c2p_ns", "other_ns", "sec_per_step"});
  table.set_title(
      "F9: per-phase wall-time breakdown (96^2, 10 steps; *_ns per zone "
      "per step)");

  auto add_row = [&](const std::string& system, const std::string& rname,
                     const RegistryPhases& phases) {
    const double total = phases.total();
    const auto pct = [&](double sec) { return 100.0 * sec / total; };
    const auto ns = [&](double sec) {
      return 1e9 * sec / (static_cast<double>(kN * kN) * kSteps);
    };
    table.add_row({system, rname, pct(phases.exchange), pct(phases.rhs),
                   pct(phases.update), pct(phases.c2p), pct(phases.other),
                   ns(phases.exchange), ns(phases.rhs), ns(phases.update),
                   ns(phases.c2p), ns(phases.other), total / kSteps});
  };

  for (const auto rm : {recon::Method::kPCM, recon::Method::kPLMMC,
                        recon::Method::kWENO5}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrhdSolver::Options opt;
    opt.recon = rm;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    solver::SrhdSolver s(grid, opt);
    s.initialize(problems::kelvin_helmholtz_ic({}));
    add_row("srhd", std::string(recon::method_name(rm)),
            measure_phases(s, kSteps));
  }

  {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrmhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.3;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(5.0 / 3.0);
    solver::SrmhdSolver s(grid, opt);
    s.initialize(problems::field_loop_ic({}));
    add_row("srmhd", "plm-mc", measure_phases(s, kSteps));
  }

  bench::emit(table, "f9_phase_breakdown");
  return 0;
}
