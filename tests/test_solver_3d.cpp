// 3D coverage: the solver machinery is dimension-general; these tests
// exercise the z-axis code paths (pencils, halos, boundaries) that the 1D
// and 2D suites never touch.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "rshc/analysis/norms.hpp"
#include "rshc/common/math.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;
using solver::SrhdSolver;

mesh::Grid cube(long long n) {
  return mesh::Grid(3, {n, n, n}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
}

SrhdSolver::Options opts3d() {
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

TEST(Solver3d, StaticGasStaysStatic) {
  SrhdSolver s(cube(8), opts3d());
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  for (int i = 0; i < 5; ++i) s.step(0.01);
  for (const double r : s.gather_prim_var(srhd::kRho)) {
    EXPECT_NEAR(r, 1.0, 1e-12);
  }
}

TEST(Solver3d, DiagonalAdvectionConserves) {
  SrhdSolver s(cube(10), opts3d());
  s.initialize([](double x, double y, double z) {
    srhd::Prim w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * (x + y + z));
    w.vx = 0.2;
    w.vy = 0.15;
    w.vz = -0.1;
    w.p = 1.0;
    return w;
  });
  const auto before = s.total_cons();
  for (int i = 0; i < 10; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-12 * before.d);
  EXPECT_NEAR(after.sz, before.sz, 1e-11 * std::abs(before.sz));
  EXPECT_NEAR(after.tau, before.tau, 1e-10 * std::abs(before.tau));
}

TEST(Solver3d, ZAxisAdvectionMatchesXAxis) {
  // The same 1D wave advected along x and along z must give identical
  // profiles — the axis-permutation symmetry of the sweep machinery.
  auto run_axis = [&](int axis) {
    auto s = std::make_unique<SrhdSolver>(cube(12), opts3d());
    s->initialize([axis](double x, double y, double z) {
      const double c = axis == 0 ? x : (axis == 1 ? y : z);
      srhd::Prim w;
      w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * c);
      w.p = 1.0;
      if (axis == 0) w.vx = 0.4;
      if (axis == 1) w.vy = 0.4;
      if (axis == 2) w.vz = 0.4;
      return w;
    });
    for (int i = 0; i < 8; ++i) s->step(0.01);
    return s;
  };
  auto sx = run_axis(0);
  auto sz = run_axis(2);
  // Compare rho along the respective pencils through the origin cell.
  for (long long i = 0; i < 12; ++i) {
    EXPECT_NEAR(sx->prim_at(i, 0, 0).rho, sz->prim_at(0, 0, i).rho, 1e-13)
        << "cell " << i;
  }
}

TEST(Solver3d, MultiBlock3dMatchesSingleBlock) {
  auto run = [&](std::array<int, 3> blocks) {
    auto opt = opts3d();
    opt.blocks = blocks;
    SrhdSolver s(cube(12), opt);
    s.initialize([](double x, double y, double z) {
      srhd::Prim w;
      w.rho = 1.0 + 0.2 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) *
                        std::cos(2 * M_PI * z);
      w.vx = 0.2;
      w.vz = 0.1;
      w.p = 1.0;
      return w;
    });
    for (int i = 0; i < 5; ++i) s.step(0.008);
    return s.gather_prim_var(srhd::kRho);
  };
  const auto one = run({1, 1, 1});
  const auto eight = run({2, 2, 2});
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_NEAR(one[i], eight[i], 1e-13) << "cell " << i;
  }
}

TEST(Solver3d, DataflowMatchesSerial3d) {
  // 2x2x2 blocks in 3D: one-step dataflow bursts against the serial
  // per-pencil oracle (step() runs the same graph inline, so the oracle is
  // the independent side).
  auto opt = opts3d();
  opt.blocks = {2, 2, 2};
  const auto ic = [](double x, double y, double z) {
    srhd::Prim w;
    w.rho = 1.0 + 0.2 * std::cos(2 * M_PI * (x - y + z));
    w.vy = 0.25;
    w.p = 1.0;
    return w;
  };
  SrhdSolver ref(cube(12), opt);
  ref.initialize(ic);
  testsupport::PencilReference oracle(ref);
  SrhdSolver s(cube(12), opt);
  s.initialize(ic);
  parallel::ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) {
    oracle.reference_step(0.008);
    s.run_steps_dataflow(1, 0.008, pool);
  }
  const auto serial = ref.gather_prim_var(srhd::kRho);
  const auto flow = s.gather_prim_var(srhd::kRho);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], flow[i]) << "cell " << i;
  }
}

TEST(Solver3d, ReflectingBoxConservesMass) {
  auto opt = opts3d();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kReflect);
  SrhdSolver s(cube(10), opt);
  s.initialize([](double x, double y, double z) {
    srhd::Prim w;
    w.rho = 1.0;
    w.vx = 0.2 * std::sin(M_PI * x);
    w.vy = 0.1 * std::sin(M_PI * y);
    w.vz = -0.15 * std::sin(M_PI * z);
    w.p = 1.0;
    return w;
  });
  const double mass0 = s.total_cons().d;
  for (int i = 0; i < 15; ++i) s.step(s.compute_dt());
  EXPECT_NEAR(s.total_cons().d, mass0, 1e-11 * mass0);
}

}  // namespace
