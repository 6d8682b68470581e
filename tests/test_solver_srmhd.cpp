// SRMHD solver integration: stability on standard MHD problems, GLM
// divergence control, reduction to SRHD at B = 0, failure injection
// (corrupted zones must be healed, not crash the run), and bitwise parity
// of step() and the pooled dataflow schedule with the per-pencil oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "rshc/analysis/norms.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/diagnostics.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;
using solver::SrmhdSolver;

SrmhdSolver::Options mhd_opts() {
  SrmhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

TEST(SrmhdSolver, StaticMagnetizedGasStaysStatic) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  SrmhdSolver s(g, mhd_opts());
  s.initialize([](double, double, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.bx = 0.5;
    w.by = 0.25;
    return w;
  });
  for (int i = 0; i < 10; ++i) s.step(0.005);
  const auto rho = s.gather_prim_var(srmhd::kRho);
  const auto bx = s.gather_prim_var(srmhd::kBx);
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_NEAR(rho[i], 1.0, 1e-11);
    EXPECT_NEAR(bx[i], 0.5, 1e-11);
  }
  EXPECT_NEAR(solver::max_divb(s), 0.0, 1e-11);
}

TEST(SrmhdSolver, UnmagnetizedSodMatchesSrhdSolver) {
  const problems::ShockTube st = problems::sod();
  const mesh::Grid g = mesh::Grid::make_1d(100, 0.0, 1.0);

  SrmhdSolver::Options mopt = mhd_opts();
  mopt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  mopt.physics.eos = eos::IdealGas(st.gamma);
  SrmhdSolver ms(g, mopt);
  ms.initialize([&st](double x, double, double) {
    const srhd::Prim h = x < st.x_split ? st.left : st.right;
    srmhd::Prim w;
    w.rho = h.rho;
    w.vx = h.vx;
    w.p = h.p;
    return w;
  });

  solver::SrhdSolver::Options hopt;
  hopt.recon = recon::Method::kPLMMC;
  hopt.cfl = 0.3;
  hopt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  hopt.physics.eos = eos::IdealGas(st.gamma);
  hopt.physics.riemann = riemann::Solver::kHLL;
  solver::SrhdSolver hs(g, hopt);
  hs.initialize(problems::shock_tube_ic(st));

  const double dt = 0.5 * std::min(ms.compute_dt(), hs.compute_dt());
  for (int i = 0; i < 40; ++i) {
    ms.step(dt);
    hs.step(dt);
  }
  const auto rho_m = ms.gather_prim_var(srmhd::kRho);
  const auto rho_h = hs.gather_prim_var(srhd::kRho);
  // Same HLL flux, same reconstruction: results agree to solver tolerance.
  EXPECT_LT(analysis::l1_error(rho_m, rho_h), 1e-8);
}

TEST(SrmhdSolver, BalsaraShockTubeRunsStable) {
  const problems::MhdShockTube st = problems::balsara_1();
  const mesh::Grid g = mesh::Grid::make_1d(200, 0.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_shock_tube_ic(st));
  s.advance_to(st.t_final);

  const auto rho = s.gather_prim_var(srmhd::kRho);
  const auto by = s.gather_prim_var(srmhd::kBy);
  for (const double r : rho) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  // Left state, compound structures, right state: By must transition from
  // +1 to -1 through the fan.
  EXPECT_NEAR(by.front(), 1.0, 1e-6);
  EXPECT_NEAR(by.back(), -1.0, 1e-6);
  // Density stays bounded by the initial extremes (no blow-up).
  for (const double r : rho) EXPECT_LT(r, 2.0);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

// Golden regression: pins the solver's output to the last bit we can state
// in decimal. The per-pencil test oracle compiles the same per-zone
// physics the batched kernels do, so a change of values there moves both
// sides of every memcmp at once; these constants (generated with %.17g,
// last when con2prim began warm-starting from the prims it overwrites with
// an analytic Newton slope: norms moved by at most 1.0e-12 relative) are
// what catches it. Any change to the SRMHD numerics fails here by design.
double l1_norm(const SrmhdSolver& s, int v) {
  const auto q = s.gather_prim_var(v);
  double sum = 0.0;
  for (const double x : q) sum += std::abs(x);
  return sum / static_cast<double>(q.size());
}

TEST(SrmhdSolver, BalsaraTubeGoldenRegression) {
  const problems::MhdShockTube st = problems::balsara_1();
  const mesh::Grid g = mesh::Grid::make_1d(128, 0.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_shock_tube_ic(st));
  const int steps = s.advance_to(st.t_final);
  EXPECT_EQ(steps, 165);
  EXPECT_NEAR(s.time(), 0.40000000000000002, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kRho), 0.51536241910041058, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kVx), 0.15920803115587776, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kP), 0.43275868398103107, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kBy), 0.79583185826425551, 1e-13);
  EXPECT_EQ(s.c2p_stats().total_iterations, 123360);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

TEST(SrmhdSolver, MhdBlastGoldenRegression) {
  const mesh::Grid g = mesh::Grid::make_2d(32, 32, -1.0, 1.0, -1.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_blast2d_ic({}));
  for (int i = 0; i < 20; ++i) s.step(s.compute_dt());
  EXPECT_NEAR(s.time(), 0.50861993507430592, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kRho), 0.99655417172909055, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kVx), 0.01745695117525204, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kP), 0.01817481207460268, 1e-13);
  EXPECT_NEAR(l1_norm(s, srmhd::kBy), 0.0036207328416404962, 1e-13);
  EXPECT_EQ(s.c2p_stats().total_iterations, 97820);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

TEST(SrmhdSolver, ConservationWithPeriodicBcs) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver s(g, mhd_opts());
  s.initialize(problems::field_loop_ic({}));
  const auto before = s.total_cons();
  for (int i = 0; i < 15; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-11 * before.d);
  EXPECT_NEAR(after.bx, before.bx, 1e-11 * std::max(1.0, std::abs(before.bx)));
  EXPECT_NEAR(after.by, before.by, 1e-11 * std::max(1.0, std::abs(before.by)));
}

TEST(SrmhdSolver, GlmCleaningBoundsDivergenceGrowth) {
  auto run = [](bool cleaning) {
    const mesh::Grid g = mesh::Grid::make_2d(32, 32, -0.5, 0.5, -0.5, 0.5);
    SrmhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.3;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(5.0 / 3.0);
    opt.physics.glm.enabled = cleaning;
    SrmhdSolver s(g, opt);
    // The discretized field loop edge seeds div B errors immediately.
    s.initialize(problems::field_loop_ic({}));
    for (int i = 0; i < 60; ++i) s.step(s.compute_dt());
    return solver::max_divb(s);
  };
  const double with_glm = run(true);
  const double without = run(false);
  EXPECT_LT(with_glm, 0.6 * without)
      << "cleaned=" << with_glm << " uncleaned=" << without;
}

TEST(SrmhdSolver, MhdBlastStaysPhysical) {
  const mesh::Grid g = mesh::Grid::make_2d(48, 48, -1.0, 1.0, -1.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_blast2d_ic({}));
  for (int i = 0; i < 30; ++i) s.step(s.compute_dt());
  const auto p = s.gather_prim_var(srmhd::kP);
  const auto rho = s.gather_prim_var(srmhd::kRho);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GT(p[i], 0.0);
    EXPECT_GT(rho[i], 0.0);
    EXPECT_TRUE(std::isfinite(p[i]));
  }
}

TEST(SrmhdSolver, FailureInjectionIsHealedNotFatal) {
  // Corrupt one zone's conservatives mid-run: con2prim must floor it,
  // count it, and the run must continue producing finite output.
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  SrmhdSolver s(g, mhd_opts());
  s.initialize([](double, double, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.bx = 0.2;
    return w;
  });
  s.step(s.compute_dt());

  auto& blk = s.block(0);
  auto& u = blk.cons();
  const int k = blk.begin(2);
  const int j = blk.begin(1) + 4;
  const int i = blk.begin(0) + 4;
  u(srmhd::kD, k, j, i) = -5.0;          // unphysical density
  u(srmhd::kTau, k, j, i) = -1.0;        // and energy
  const long long floored_before = s.c2p_stats().floored_zones;
  EXPECT_NO_THROW({
    for (int n = 0; n < 5; ++n) s.step(s.compute_dt());
  });
  EXPECT_GT(s.c2p_stats().floored_zones, floored_before);
  for (const double r : s.gather_prim_var(srmhd::kRho)) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(SrmhdSolver, PsiDampingShrinksPsiNorm) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver::Options opt = mhd_opts();
  opt.physics.glm.alpha = 1.0;
  SrmhdSolver s(g, opt);
  // Seed pure psi noise on a static background.
  s.initialize([](double x, double y, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.psi = 0.1 * std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y);
    return w;
  });
  const double psi0 = solver::psi_l2(s);
  for (int i = 0; i < 30; ++i) s.step(s.compute_dt());
  EXPECT_LT(solver::psi_l2(s), psi0);
}

// --- execution-mode parity ---------------------------------------------
// step() and run_steps_dataflow run the same graph, so each mode is held to
// the per-pencil oracle, which shares no stepping code with the solver.

enum class Mode { kStep, kDataflowOneStepBursts, kDataflowFused };

std::string mode_name(const testing::TestParamInfo<Mode>& info) {
  switch (info.param) {
    case Mode::kStep: return "Step";
    case Mode::kDataflowOneStepBursts: return "DataflowOneStepBursts";
    case Mode::kDataflowFused: return "DataflowFused";
  }
  return "Unknown";
}

bool same_bits(const mesh::FieldArray& a, const mesh::FieldArray& b) {
  return a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

class SrmhdParallelParity : public testing::TestWithParam<Mode> {};

// GLM damping runs once per step, in the last stage's compute node; a
// schedule that applied it twice (or skipped it) would leave every psi
// value off from the oracle's.
TEST_P(SrmhdParallelParity, MatchesPencilReferenceBitwise) {
  constexpr int kSteps = 4;
  constexpr double kDt = 0.005;
  const mesh::Grid g = mesh::Grid::make_2d(32, 32, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver::Options opt = mhd_opts();
  opt.blocks = {2, 2, 1};
  SrmhdSolver ref(g, opt);
  SrmhdSolver par(g, opt);
  ref.initialize(problems::field_loop_ic({}));
  par.initialize(problems::field_loop_ic({}));

  testsupport::PencilReference oracle(ref);
  for (int i = 0; i < kSteps; ++i) oracle.reference_step(kDt);
  parallel::ThreadPool pool(2);
  switch (GetParam()) {
    case Mode::kStep:
      for (int i = 0; i < kSteps; ++i) par.step(kDt);
      break;
    case Mode::kDataflowOneStepBursts:
      for (int i = 0; i < kSteps; ++i) par.run_steps_dataflow(1, kDt, pool);
      break;
    case Mode::kDataflowFused: par.run_steps_dataflow(kSteps, kDt, pool); break;
  }

  ASSERT_EQ(ref.num_blocks(), par.num_blocks());
  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_TRUE(same_bits(ref.block(b).cons(), par.block(b).cons()))
        << "cons, block " << b;
    EXPECT_TRUE(same_bits(ref.block(b).prim(), par.block(b).prim()))
        << "prims (psi included), block " << b;
  }
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            par.c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, par.c2p_stats().floored_zones);
  EXPECT_EQ(ref.time(), par.time());
  EXPECT_EQ(par.steps_taken(), kSteps);
}

INSTANTIATE_TEST_SUITE_P(Modes, SrmhdParallelParity,
                         testing::Values(Mode::kStep,
                                         Mode::kDataflowOneStepBursts,
                                         Mode::kDataflowFused),
                         mode_name);

}  // namespace
