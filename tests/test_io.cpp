// VTK output and checkpoint round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "rshc/io/checkpoint.hpp"
#include "rshc/io/vtk.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace {

using namespace rshc;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// FvSolver is pinned in memory (blocks reference its grid), so tests hold
// it behind a unique_ptr.
std::unique_ptr<solver::SrhdSolver> make_evolved_solver() {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  auto s = std::make_unique<solver::SrhdSolver>(g, opt);
  s->initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.vx = 0.3;
    w.vy = -0.2;
    w.p = 1.0 + 0.1 * x;
    return w;
  });
  for (int i = 0; i < 5; ++i) s->step(s->compute_dt());
  return s;
}

TEST(Vtk, WritesWellFormedFile) {
  const mesh::Grid g = mesh::Grid::make_2d(4, 3, 0.0, 1.0, 0.0, 1.0);
  io::VtkField f;
  f.name = "rho";
  f.data.assign(12, 1.5);
  const std::string path = temp_path("out.vtk");
  io::write_vtk(path, g, std::span<const io::VtkField>(&f, 1));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("DIMENSIONS 5 4 2"), std::string::npos);
  EXPECT_NE(content.find("CELL_DATA 12"), std::string::npos);
  EXPECT_NE(content.find("SCALARS rho double 1"), std::string::npos);
}

TEST(Vtk, RejectsWrongFieldSize) {
  const mesh::Grid g = mesh::Grid::make_2d(4, 3, 0.0, 1.0, 0.0, 1.0);
  io::VtkField f;
  f.name = "rho";
  f.data.assign(7, 1.0);
  EXPECT_THROW(io::write_vtk(temp_path("bad.vtk"), g,
                             std::span<const io::VtkField>(&f, 1)),
               Error);
}

TEST(Checkpoint, RoundTripRestoresStateExactly) {
  auto sp = make_evolved_solver();
  auto& s = *sp;
  const std::string path = temp_path("state.rshc");
  io::write_checkpoint(path, s);

  // Fresh solver, same configuration, dummy initial data.
  const mesh::Grid g = s.grid();
  solver::SrhdSolver::Options opt = s.options();
  solver::SrhdSolver restored(g, opt);
  restored.initialize([](double, double, double) {
    return srhd::Prim{2.0, 0.0, 0.0, 0.0, 2.0};
  });
  io::read_checkpoint(path, restored);

  EXPECT_DOUBLE_EQ(restored.time(), s.time());
  const auto a = s.gather_prim_var(srhd::kRho);
  const auto b = restored.gather_prim_var(srhd::kRho);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12 * a[i]) << i;
  }

  // And both must evolve identically afterwards.
  s.step(0.002);
  restored.step(0.002);
  const auto a2 = s.gather_prim_var(srhd::kP);
  const auto b2 = restored.gather_prim_var(srhd::kP);
  for (std::size_t i = 0; i < a2.size(); ++i) {
    EXPECT_NEAR(a2[i], b2[i], 1e-12 * a2[i]) << i;
  }
}

TEST(Checkpoint, RejectsMismatchedGrid) {
  auto sp = make_evolved_solver();
  auto& s = *sp;
  const std::string path = temp_path("state2.rshc");
  io::write_checkpoint(path, s);

  const mesh::Grid other = mesh::Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver wrong(other, s.options());
  wrong.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  EXPECT_THROW(io::read_checkpoint(path, wrong), Error);
}

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.rshc");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a checkpoint at all, not even close.............";
  }
  auto sp = make_evolved_solver();
  auto& s = *sp;
  EXPECT_THROW(io::read_checkpoint(path, s), Error);
  EXPECT_THROW(io::read_checkpoint("/nonexistent/nope.rshc", s), Error);
}

}  // namespace
