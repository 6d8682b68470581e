// Full scheme-matrix integration sweep: every (reconstruction x Riemann
// solver x integrator) combination drives a small relativistic shock tube
// and must stay stable, positive, conservative-of-mass (up to outflow),
// and rank sensibly in accuracy. This is the combinatorial safety net for
// configuration options that individual suites only probe pairwise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;

using Combo = std::tuple<recon::Method, riemann::Solver, time::Integrator>;

class SchemeMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(SchemeMatrix, SodTubeStaysPhysicalAndAccurate) {
  const auto [rm, rs, ti] = GetParam();
  const problems::ShockTube st = problems::sod();
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = rm;
  opt.integrator = ti;
  opt.cfl = ti == time::Integrator::kEuler ? 0.2 : 0.4;  // Euler needs slack
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  opt.physics.riemann = rs;
  solver::SrhdSolver s(g, opt);
  s.initialize(problems::shock_tube_ic(st));
  const int steps = s.advance_to(st.t_final);

  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  const auto rho = s.gather_prim_var(srhd::kRho);
  const auto p = s.gather_prim_var(srhd::kP);
  std::vector<double> ref(rho.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = exact
                 .sample((g.cell_center(0, static_cast<long long>(i)) -
                          st.x_split) /
                         st.t_final)
                 .rho;
  }
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_TRUE(std::isfinite(rho[i])) << "cell " << i;
    EXPECT_GT(rho[i], 0.0) << "cell " << i;
    EXPECT_GT(p[i], 0.0) << "cell " << i;
  }
  // Generous accuracy gate: even PCM + LLF + Euler at N=64 lands well
  // under this; blow-ups land far above it.
  EXPECT_LT(analysis::l1_error(rho, ref), 0.08);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);

  // The run above used the batched pipeline. Replaying it through the
  // per-pencil oracle (adaptive dt and all) must land on the exact same
  // bits — the batched pipeline's core contract, checked here across the
  // full scheme matrix on a complete shock-tube evolution.
  solver::SrhdSolver pencil(g, opt);
  pencil.initialize(problems::shock_tube_ic(st));
  testsupport::PencilReference oracle(pencil);
  EXPECT_EQ(oracle.reference_advance_to(st.t_final), steps);
  EXPECT_EQ(pencil.time(), s.time());
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            s.c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, s.c2p_stats().floored_zones);
  const auto rho_p = pencil.gather_prim_var(srhd::kRho);
  const auto p_p = pencil.gather_prim_var(srhd::kP);
  int diffs = 0;
  for (std::size_t i = 0; i < rho.size(); ++i) {
    if (std::memcmp(&rho[i], &rho_p[i], sizeof(double)) != 0 ||
        std::memcmp(&p[i], &p_p[i], sizeof(double)) != 0) {
      ++diffs;
    }
  }
  EXPECT_EQ(diffs, 0) << "batched pipeline diverged from pencil reference";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchemeMatrix,
    ::testing::Combine(
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5),
        ::testing::Values(riemann::Solver::kLLF, riemann::Solver::kHLL,
                          riemann::Solver::kHLLC),
        ::testing::Values(time::Integrator::kEuler,
                          time::Integrator::kSspRk2,
                          time::Integrator::kSspRk3)));

}  // namespace
