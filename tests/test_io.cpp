// VTK output and checkpoint round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

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
std::unique_ptr<solver::SrhdSolver> make_evolved_solver(
    std::array<int, 3> blocks = {1, 1, 1}) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.blocks = blocks;
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

/// Bits of one FieldArray's interior, variable-major.
std::vector<double> interior(const mesh::Block& blk,
                             const mesh::FieldArray& a) {
  std::vector<double> out;
  for (int v = 0; v < a.nvar(); ++v) {
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          out.push_back(a(v, k, j, i));
        }
      }
    }
  }
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, RoundTripRestoresStateExactly) {
  auto sp = make_evolved_solver({2, 2, 1});
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

  EXPECT_EQ(restored.time(), s.time());
  ASSERT_EQ(restored.num_blocks(), 4);
  for (int b = 0; b < s.num_blocks(); ++b) {
    const mesh::Block& x = s.block(b);
    const mesh::Block& y = restored.block(b);
    EXPECT_TRUE(same_bits(interior(x, x.cons()), interior(y, y.cons())))
        << "cons, block " << b;
    EXPECT_TRUE(same_bits(interior(x, x.prim()), interior(y, y.prim())))
        << "prims, block " << b;
  }

  // And both must evolve identically afterwards: con2prim starts from the
  // restored prims, so the whole arrays, ghosts included, match.
  s.step(0.002);
  restored.step(0.002);
  for (int b = 0; b < s.num_blocks(); ++b) {
    const mesh::Block& x = s.block(b);
    const mesh::Block& y = restored.block(b);
    EXPECT_TRUE(same_bits(x.cons().flat(), y.cons().flat()))
        << "cons after a step, block " << b;
    EXPECT_TRUE(same_bits(x.prim().flat(), y.prim().flat()))
        << "prims after a step, block " << b;
  }
}

TEST(Checkpoint, RejectsVersionOneFile) {
  auto sp = make_evolved_solver();
  auto& s = *sp;
  const std::string path = temp_path("state_v2.rshc");
  io::write_checkpoint(path, s);

  // A version-1 file: the same header with version 1, cons payload only.
  std::string bytes = read_bytes(path);
  constexpr std::size_t kHeader = 56;
  const std::size_t cons_bytes = 16 * 16 * srhd::kNumVars * sizeof(double);
  ASSERT_EQ(bytes.size(), kHeader + 2 * cons_bytes);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  bytes.resize(kHeader + cons_bytes);
  const std::string v1_path = temp_path("state_v1.rshc");
  std::ofstream(v1_path, std::ios::binary) << bytes;

  const auto rho_before = s.gather_prim_var(srhd::kRho);
  try {
    io::read_checkpoint(v1_path, s);
    FAIL() << "version-1 checkpoint accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported version 1 (expected 2)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("no primitives"), std::string::npos) << what;
  }
  EXPECT_TRUE(same_bits(rho_before, s.gather_prim_var(srhd::kRho)));
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
