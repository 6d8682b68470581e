// Integration tests of the SRHD finite-volume solver: conservation,
// accuracy against exact solutions, and bit-equivalence of the dataflow
// schedule (one-step bursts and fused multi-step graphs) with the
// per-pencil oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/common/math.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;
using solver::SrhdSolver;

SrhdSolver::Options periodic_opts() {
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

TEST(SrhdSolver, StaticGasStaysStatic) {
  const mesh::Grid g = mesh::Grid::make_1d(32, 0.0, 1.0);
  SrhdSolver s(g, periodic_opts());
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  for (int i = 0; i < 10; ++i) s.step(0.005);
  const auto rho = s.gather_prim_var(srhd::kRho);
  for (const double r : rho) EXPECT_NEAR(r, 1.0, 1e-12);
  EXPECT_NEAR(s.time(), 0.05, 1e-14);
}

TEST(SrhdSolver, PeriodicAdvectionConservesExactly) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver s(g, periodic_opts());
  s.initialize(problems::smooth_wave_ic({}));
  const auto before = s.total_cons();
  for (int i = 0; i < 50; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-12 * std::abs(before.d));
  EXPECT_NEAR(after.sx, before.sx, 1e-12 * std::abs(before.sx));
  EXPECT_NEAR(after.tau, before.tau, 1e-11 * std::abs(before.tau));
}

TEST(SrhdSolver, SmoothWaveAdvectsAtTheRightSpeed) {
  const problems::SmoothWave wave{};
  const mesh::Grid g = mesh::Grid::make_1d(128, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.recon = recon::Method::kWENO5;
  SrhdSolver s(g, opt);
  s.initialize(problems::smooth_wave_ic(wave));
  const double t_end = 0.4;
  s.advance_to(t_end);
  const auto rho = s.gather_prim_var(srhd::kRho);
  std::vector<double> exact(rho.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = problems::smooth_wave_exact_rho(
        wave, g.cell_center(0, static_cast<long long>(i)), s.time());
  }
  EXPECT_LT(analysis::l1_error(rho, exact), 2e-5);
}

TEST(SrhdSolver, HigherResolutionReducesError) {
  const problems::SmoothWave wave{};
  auto run = [&](long long n) {
    const mesh::Grid g = mesh::Grid::make_1d(n, 0.0, 1.0);
    auto opt = periodic_opts();
    opt.recon = recon::Method::kPLMMC;
    SrhdSolver s(g, opt);
    s.initialize(problems::smooth_wave_ic(wave));
    s.advance_to(0.2);
    const auto rho = s.gather_prim_var(srhd::kRho);
    std::vector<double> exact(rho.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      exact[i] = problems::smooth_wave_exact_rho(
          wave, g.cell_center(0, static_cast<long long>(i)), s.time());
    }
    return analysis::l1_error(rho, exact);
  };
  const double e32 = run(32);
  const double e64 = run(64);
  const double e128 = run(128);
  EXPECT_GT(analysis::convergence_order(e32, e64), 1.5);
  EXPECT_GT(analysis::convergence_order(e64, e128), 1.5);
}

TEST(SrhdSolver, ShockTubeMatchesExactSolution) {
  const problems::ShockTube st = problems::marti_muller_1();
  const mesh::Grid g = mesh::Grid::make_1d(200, 0.0, 1.0);
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  opt.physics.riemann = riemann::Solver::kHLLC;
  SrhdSolver s(g, opt);
  s.initialize(problems::shock_tube_ic(st));
  s.advance_to(st.t_final);

  const analysis::ExactRiemann exact({st.left.rho, st.left.vx, st.left.p},
                                     {st.right.rho, st.right.vx, st.right.p},
                                     st.gamma);
  const auto rho = s.gather_prim_var(srhd::kRho);
  std::vector<double> ref(rho.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = exact
                 .sample((g.cell_center(0, static_cast<long long>(i)) -
                          st.x_split) /
                         st.t_final)
                 .rho;
  }
  EXPECT_LT(analysis::l1_error(rho, ref), 0.12);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

// Golden regression: a fixed 64-zone Sod tube run to t_final must land on
// the committed reference L1 norms to near machine precision. Catches any
// unintended change to the numerics (reconstruction, Riemann solver, RK
// update, con2prim) that the physics-based tolerances above are too loose
// to see. Regenerate the constants only for a *deliberate* scheme change
// (print the three norms at %.17g from the same configuration). Last
// regenerated when con2prim began warm-starting from the prims it
// overwrites (norms moved by at most 2.3e-14 relative). The c2p counters
// pin the Newton work.
TEST(SrhdSolver, SodTubeGoldenRegression) {
  const problems::ShockTube st = problems::sod();
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  SrhdSolver s(g, opt);
  s.initialize(problems::shock_tube_ic(st));
  const int steps = s.advance_to(st.t_final);

  auto l1_norm = [&s](int v) {
    const auto q = s.gather_prim_var(v);
    double sum = 0.0;
    for (const double x : q) sum += std::abs(x);
    return sum / static_cast<double>(q.size());
  };

  EXPECT_EQ(steps, 45);
  EXPECT_NEAR(s.time(), 0.34999999999999998, 1e-15);
  EXPECT_NEAR(l1_norm(srhd::kRho), 0.54785385701791112, 1e-12);
  EXPECT_NEAR(l1_norm(srhd::kVx), 0.16503998510132728, 1e-12);
  EXPECT_NEAR(l1_norm(srhd::kP), 0.50847999696325596, 1e-12);
  EXPECT_EQ(s.c2p_stats().total_iterations, 13970);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

TEST(SrhdSolver, ReflectingWallsConserveMass) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver::Options opt = periodic_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kReflect);
  SrhdSolver s(g, opt);
  // Gas sloshing against the walls.
  s.initialize([](double x, double, double) {
    return srhd::Prim{1.0, 0.3 * std::sin(M_PI * x), 0.0, 0.0, 1.0};
  });
  const double mass0 = s.total_cons().d;
  for (int i = 0; i < 40; ++i) s.step(s.compute_dt());
  EXPECT_NEAR(s.total_cons().d, mass0, 1e-11 * mass0);
}

// --- execution-mode equivalence ---------------------------------------------
// step() and run_steps_dataflow run the same graph, so comparing them with
// each other cannot catch a fault in a node body. Both are held to the
// per-pencil oracle instead, which shares no stepping code with the solver.

srhd::Prim modes_ic(double x, double y, double) {
  srhd::Prim w;
  w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
  w.vx = 0.3;
  w.vy = -0.2;
  w.p = 1.0;
  return w;
}

std::vector<double> run_steps(int blocks_x, int blocks_y) {
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {blocks_x, blocks_y, 1};
  SrhdSolver s(g, opt);
  s.initialize(modes_ic);
  for (int i = 0; i < 12; ++i) s.step(0.004);
  return s.gather_prim_var(srhd::kRho);
}

bool same_bits(const mesh::FieldArray& a, const mesh::FieldArray& b) {
  return a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

/// `s` must hold the oracle-driven `ref`'s state bit for bit: cons and
/// prims of every block, the c2p counters and the clock.
void expect_matches_oracle(
    const SrhdSolver& ref,
    const testsupport::PencilReference<solver::SrhdPhysics>& oracle,
    const SrhdSolver& s) {
  ASSERT_EQ(ref.num_blocks(), s.num_blocks());
  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_TRUE(same_bits(ref.block(b).cons(), s.block(b).cons()))
        << "cons, block " << b;
    EXPECT_TRUE(same_bits(ref.block(b).prim(), s.block(b).prim()))
        << "prims, block " << b;
  }
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            s.c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, s.c2p_stats().floored_zones);
  EXPECT_EQ(ref.time(), s.time());
}

TEST(SrhdSolverModes, DataflowMatchesSerialBitwise) {
  // Twelve one-step dataflow bursts on 3 workers against twelve serial
  // oracle steps, 2x2 blocks.
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  SrhdSolver ref(g, opt);
  ref.initialize(modes_ic);
  testsupport::PencilReference oracle(ref);
  SrhdSolver s(g, opt);
  s.initialize(modes_ic);
  parallel::ThreadPool pool(3);
  for (int i = 0; i < 12; ++i) {
    oracle.reference_step(0.004);
    s.run_steps_dataflow(1, 0.004, pool);
  }
  expect_matches_oracle(ref, oracle, s);
}

TEST(SrhdSolverModes, BlockCountDoesNotChangeTheAnswer) {
  const auto one = run_steps(1, 1);
  const auto many = run_steps(3, 2);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_NEAR(one[i], many[i], 1e-13) << "cell " << i;
  }
}

TEST(SrhdSolverModes, MultiStepDataflowGraphMatchesStepwise) {
  // One graph spanning six steps (no barrier between them) against six
  // serial oracle steps.
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  auto ic = [](double x, double y, double) {
    return srhd::Prim{1.0 + 0.3 * std::sin(2 * M_PI * (x + y)), 0.25, 0.1,
                      0.0, 1.0};
  };
  SrhdSolver ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference oracle(ref);
  for (int i = 0; i < 6; ++i) oracle.reference_step(0.005);

  parallel::ThreadPool pool(2);
  SrhdSolver s(g, opt);
  s.initialize(ic);
  s.run_steps_dataflow(6, 0.005, pool);
  expect_matches_oracle(ref, oracle, s);
  EXPECT_EQ(s.steps_taken(), 6);
}

TEST(SrhdSolver, TwoDimensionalConservation) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 20, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  SrhdSolver s(g, opt);
  s.initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.5 * std::exp(-50.0 * (rshc::sq(x - 0.5) + rshc::sq(y - 0.5)));
    w.p = 1.0;
    w.vx = 0.2;
    return w;
  });
  const auto before = s.total_cons();
  for (int i = 0; i < 20; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-11 * before.d);
  EXPECT_NEAR(after.tau, before.tau, 1e-10 * std::abs(before.tau));
}

TEST(SrhdSolver, ComputeDtScalesWithResolution) {
  auto opt = periodic_opts();
  const mesh::Grid g1 = mesh::Grid::make_1d(32, 0.0, 1.0);
  const mesh::Grid g2 = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver s1(g1, opt);
  SrhdSolver s2(g2, opt);
  const auto ic = problems::smooth_wave_ic({});
  s1.initialize(ic);
  s2.initialize(ic);
  EXPECT_NEAR(s1.compute_dt() / s2.compute_dt(), 2.0, 0.05);
}

TEST(SrhdSolver, PrimAtReadsTheRightCell) {
  const mesh::Grid g = mesh::Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  SrhdSolver s(g, opt);
  s.initialize([](double x, double y, double) {
    return srhd::Prim{1.0 + x + 10.0 * y, 0.0, 0.0, 0.0, 1.0};
  });
  const auto p = s.prim_at(5, 6);
  EXPECT_NEAR(p.rho, 1.0 + g.cell_center(0, 5) + 10.0 * g.cell_center(1, 6),
              1e-13);
  EXPECT_THROW((void)s.prim_at(100, 0), Error);
}

TEST(SrhdSolver, RejectsBlocksSmallerThanStencil) {
  const mesh::Grid g = mesh::Grid::make_1d(8, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.recon = recon::Method::kWENO5;  // ghost width 3
  opt.blocks = {4, 1, 1};             // 2 cells per block < 3
  EXPECT_THROW(SrhdSolver(g, opt), Error);
}

}  // namespace
