// Batched host pipeline vs the per-pencil oracle: the slab-wise rhs / RK
// update / con2prim / CFL path (DESIGN.md system #12) promises *bitwise*
// identical states to the per-pencil reference in
// tests/support/pencil_reference.hpp, for every reconstruction scheme,
// Riemann solver, physics system, and dimensionality — including the
// restricted-block (distributed per-rank) constructor. Any ulp of drift
// here means the batched path reassociated arithmetic or reordered an
// accumulation, which this suite exists to catch. The scalar variant of the
// batched span kernels (con2prim, CFL scan, interface flux) is held to the
// same oracle on the state it evolved.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "rshc/problems/problems.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;

constexpr double kPi = 3.14159265358979323846;

/// Count elements whose *bit patterns* differ (tolerates nothing, not even
/// -0.0 vs +0.0 or differing NaN payloads).
int count_bit_diffs(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++diffs;
  }
  return diffs;
}

/// Run `nsteps` fixed-dt steps through the pencil oracle and through the
/// solver's own batched pipeline, then require bitwise-equal cons and prim
/// fields on every block, an identical dt, and identical con2prim health
/// counters.
template <typename Solver, typename Ic>
void expect_matches_oracle(const mesh::Grid& g, typename Solver::Options opt,
                           const Ic& ic, int nsteps) {
  Solver ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference oracle(ref);
  Solver s(g, opt);
  s.initialize(ic);

  const double dt = oracle.reference_dt();
  EXPECT_EQ(dt, s.compute_dt()) << "batched compute_dt drifted";
  for (int n = 0; n < nsteps; ++n) {
    oracle.reference_step(dt);
    s.step(dt);
  }

  ASSERT_EQ(ref.num_blocks(), s.num_blocks());
  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_EQ(count_bit_diffs(ref.block(b).cons().flat(),
                              s.block(b).cons().flat()),
              0)
        << "cons mismatch on block " << b;
    EXPECT_EQ(count_bit_diffs(ref.block(b).prim().flat(),
                              s.block(b).prim().flat()),
              0)
        << "prim mismatch on block " << b;
  }
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            s.c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, s.c2p_stats().floored_zones);
}

/// SRHD workload with structure along every active axis: a shock-tube jump
/// in x riding on smooth transverse variations, so reconstruction,
/// limiting, and flux accumulation are all exercised per axis.
srhd::Prim srhd_ic(double x, double y, double z) {
  const bool left = x < 0.5;
  srhd::Prim p;
  p.rho = (left ? 1.0 : 0.125) + 0.05 * std::sin(2.0 * kPi * y) +
          0.05 * std::cos(2.0 * kPi * z);
  p.vx = left ? 0.1 : -0.1;
  p.vy = 0.05 * std::sin(2.0 * kPi * x);
  p.vz = 0.05 * std::cos(2.0 * kPi * y);
  p.p = (left ? 1.0 : 0.1) + 0.02 * std::sin(2.0 * kPi * (x + z));
  return p;
}

/// SRMHD analogue: Balsara-1-like jump plus transverse field structure.
srmhd::Prim srmhd_ic(double x, double y, double z) {
  const bool left = x < 0.5;
  srmhd::Prim p;
  p.rho = left ? 1.0 : 0.125;
  p.vx = 0.05 * std::sin(2.0 * kPi * y);
  p.vy = 0.05 * std::cos(2.0 * kPi * x);
  p.vz = 0.02 * std::sin(2.0 * kPi * z);
  p.p = left ? 1.0 : 0.1;
  p.bx = 0.5;
  p.by = (left ? 1.0 : -1.0) + 0.1 * std::sin(2.0 * kPi * z);
  p.bz = 0.1 * std::cos(2.0 * kPi * y);
  p.psi = 0.0;
  return p;
}

/// Grid + step count per dimensionality (small but multi-block in 1D/2D).
struct Case {
  mesh::Grid grid;
  std::array<int, 3> blocks;
  int nsteps;
};

Case make_case(int ndim) {
  switch (ndim) {
    case 1:
      return {mesh::Grid::make_1d(64, 0.0, 1.0), {2, 1, 1}, 4};
    case 2:
      return {mesh::Grid::make_2d(24, 16, 0.0, 1.0, 0.0, 1.0), {2, 2, 1}, 3};
    default:
      return {mesh::Grid(3, {12, 8, 8}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}),
              {1, 1, 1},
              2};
  }
}

using SrhdCombo = std::tuple<int, recon::Method, riemann::Solver>;

class RhsPipelineSrhd : public ::testing::TestWithParam<SrhdCombo> {};

TEST_P(RhsPipelineSrhd, BatchedMatchesPencilBitwise) {
  const auto [ndim, rm, rs] = GetParam();
  const Case c = make_case(ndim);
  solver::SrhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = rs;
  opt.blocks = c.blocks;
  expect_matches_oracle<solver::SrhdSolver>(c.grid, opt, srhd_ic, c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RhsPipelineSrhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5),
        ::testing::Values(riemann::Solver::kLLF, riemann::Solver::kHLL,
                          riemann::Solver::kHLLC, riemann::Solver::kExact)));

using SrmhdCombo = std::tuple<int, recon::Method>;

class RhsPipelineSrmhd : public ::testing::TestWithParam<SrmhdCombo> {};

TEST_P(RhsPipelineSrmhd, BatchedMatchesPencilBitwise) {
  const auto [ndim, rm] = GetParam();
  const Case c = make_case(ndim);
  solver::SrmhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_matches_oracle<solver::SrmhdSolver>(c.grid, opt, srmhd_ic, c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RhsPipelineSrmhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5)));

/// SoA rows of `nvars` variables over `n` zones plus the row pointers the
/// span-level Physics kernels take.
struct Rows {
  std::vector<std::vector<double>> data;
  std::vector<double*> ptr;
  Rows(int nvars, std::size_t n)
      : data(static_cast<std::size_t>(nvars), std::vector<double>(n, 0.0)) {
    for (auto& r : data) ptr.push_back(r.data());
  }
  [[nodiscard]] const double* const* cptr() const { return ptr.data(); }
};

/// The scalar variant of the batched span kernels — the kernels::scalar
/// TUs behind Physics::cons_to_prim_n / max_speed_n / interface_flux_n with
/// simd = false — against the per-pencil oracle on the state it evolved:
/// con2prim over every block interior, started from the prims the oracle's
/// last con2prim started from, must reproduce the oracle's prims,
/// the max_speed_n CFL scan its dt, and the batched limiter + Riemann +
/// flux over every pencil's interfaces its per-interface fluxes, all bit
/// for bit.
template <typename Physics, typename Ic>
void expect_scalar_kernels_match_oracle(
    const mesh::Grid& g,
    const typename solver::FvSolver<Physics>::Options& opt, const Ic& ic,
    int nsteps) {
  using Prim = typename Physics::Prim;
  using Cons = typename Physics::Cons;
  solver::FvSolver<Physics> ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference oracle(ref);
  const double dt = oracle.reference_dt();
  for (int n = 0; n < nsteps; ++n) oracle.reference_step(dt);
  ref.fill_all_ghosts();
  const auto& ctx = opt.physics;

  double vmax = 1e-30;
  for (int b = 0; b < ref.num_blocks(); ++b) {
    const mesh::Block& blk = ref.block(b);
    const std::size_t n = static_cast<std::size_t>(blk.interior(0)) *
                          static_cast<std::size_t>(blk.interior(1)) *
                          static_cast<std::size_t>(blk.interior(2));
    Rows u(Physics::kNumCons, n);
    Rows w_ref(Physics::kNumPrim, n);
    Rows w(Physics::kNumPrim, n);  // the guesses, overwritten by con2prim
    const mesh::FieldArray& guess = oracle.last_c2p_guess(b);
    std::size_t z = 0;
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i, ++z) {
          for (int v = 0; v < Physics::kNumCons; ++v) {
            u.data[static_cast<std::size_t>(v)][z] = blk.cons()(v, k, j, i);
          }
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            w_ref.data[static_cast<std::size_t>(v)][z] =
                blk.prim()(v, k, j, i);
            w.data[static_cast<std::size_t>(v)][z] = guess(v, k, j, i);
          }
        }
      }
    }
    solver::C2PStats stats;
    Physics::cons_to_prim_n(false, n, u.cptr(), w.ptr.data(), ctx, stats);
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      EXPECT_EQ(count_bit_diffs(w.data[static_cast<std::size_t>(v)],
                                w_ref.data[static_cast<std::size_t>(v)]),
                0)
          << "scalar con2prim drifted: block " << b << " var " << v;
    }
    std::vector<double> speed(n);
    Physics::max_speed_n(false, n, w_ref.cptr(), speed.data(), ctx, g.ndim());
    for (const double sp : speed) vmax = std::max(vmax, sp);
  }
  EXPECT_EQ(opt.cfl * g.min_dx() / vmax, oracle.reference_dt())
      << "scalar max_speed_n CFL scan drifted";

  int flux_diffs = 0;
  for (int b = 0; b < ref.num_blocks(); ++b) {
    const mesh::Block& blk = ref.block(b);
    for (int axis = 0; axis < g.ndim(); ++axis) {
      const int len = blk.total(axis);
      const auto m = static_cast<std::size_t>(blk.end(axis) -
                                              blk.begin(axis) + 1);
      int a1 = -1;
      int a2 = -1;
      for (int a = 0; a < 3; ++a) {
        if (a != axis) (a1 < 0 ? a1 : a2) = a;
      }
      for (int t2 = blk.begin(a2); t2 < blk.end(a2); ++t2) {
        for (int t1 = blk.begin(a1); t1 < blk.end(a1); ++t1) {
          // Reconstruct the pencil, then stage the interfaces
          // f+1/2, f in [begin-1, end-1], as face-state rows.
          Rows wl(Physics::kNumPrim, m);
          Rows wr(Physics::kNumPrim, m);
          std::vector<double> q(static_cast<std::size_t>(len));
          std::vector<double> ql(q.size());
          std::vector<double> qr(q.size());
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            for (int f = 0; f < len; ++f) {
              int idx[3];
              idx[axis] = f;
              idx[a1] = t1;
              idx[a2] = t2;
              q[static_cast<std::size_t>(f)] =
                  blk.prim()(v, idx[2], idx[1], idx[0]);
            }
            recon::reconstruct(opt.recon, q, ql, qr);
            for (std::size_t x = 0; x < m; ++x) {
              const auto f =
                  static_cast<std::size_t>(blk.begin(axis) - 1) + x;
              wl.data[static_cast<std::size_t>(v)][x] = qr[f];
              wr.data[static_cast<std::size_t>(v)][x] = ql[f + 1];
            }
          }
          Rows flux(Physics::kNumCons, m);
          ASSERT_TRUE(Physics::interface_flux_n(false, m, axis, wl.cptr(),
                                                wr.cptr(), flux.ptr.data(),
                                                ctx));
          double comp[Physics::kNumPrim > Physics::kNumCons
                          ? Physics::kNumPrim
                          : Physics::kNumCons];
          for (std::size_t x = 0; x < m; ++x) {
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = wl.data[static_cast<std::size_t>(v)][x];
            }
            Prim pl = Physics::prim_from_components(comp);
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = wr.data[static_cast<std::size_t>(v)][x];
            }
            Prim pr = Physics::prim_from_components(comp);
            Physics::limit_face_state(pl, ctx);
            Physics::limit_face_state(pr, ctx);
            const Cons f = Physics::interface_flux(pl, pr, axis, ctx);
            Physics::cons_components(f, comp);
            for (int v = 0; v < Physics::kNumCons; ++v) {
              if (std::memcmp(&comp[v],
                              &flux.data[static_cast<std::size_t>(v)][x],
                              sizeof(double)) != 0) {
                ++flux_diffs;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(flux_diffs, 0) << "scalar interface_flux_n drifted";
}

// HLLC, and the exact solver's row loop (the one face kernel that does not
// vectorize).
TEST(RhsPipeline, BatchedScalarMatchesPencilBitwiseSrhd) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kWENO5;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  for (const auto rs : {riemann::Solver::kHLLC, riemann::Solver::kExact}) {
    SCOPED_TRACE(riemann::solver_name(rs));
    opt.physics.riemann = rs;
    expect_scalar_kernels_match_oracle<solver::SrhdPhysics>(
        c.grid, opt, srhd_ic, c.nsteps);
  }
}

TEST(RhsPipeline, BatchedScalarMatchesPencilBitwiseSrmhd) {
  const Case c = make_case(2);
  solver::SrmhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_scalar_kernels_match_oracle<solver::SrmhdPhysics>(
      c.grid, opt, srmhd_ic, c.nsteps);
}

// Restricted-block construction (the distributed driver's per-rank view)
// must flow through the batched pipeline too. Both solvers own a single
// block covering the full grid and fill ghosts through the same manual
// physical-boundary filler (the oracle reaches it via fill_all_ghosts).
TEST(RhsPipeline, RestrictedBlockBatchedMatchesPencil) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 12, 0.0, 1.0, 0.0, 1.0);
  const mesh::BlockExtents sub{{0, 0, 0}, {20, 12, 1}};
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPPM;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.riemann = riemann::Solver::kHLL;

  auto make = [&] {
    auto s = std::make_unique<solver::SrhdSolver>(g, opt, sub);
    solver::SrhdSolver* raw = s.get();
    s->set_ghost_filler([raw](int) {
      auto& blk = raw->block(0);
      for (int axis = 0; axis < 2; ++axis) {
        for (int side = 0; side < 2; ++side) {
          const auto negate = solver::SrhdPhysics::reflect_negate_vars(axis);
          mesh::apply_physical_boundary(blk, axis, side,
                                        mesh::BcType::kOutflow, negate);
        }
      }
    });
    s->initialize(srhd_ic);
    return s;
  };

  auto ref = make();
  testsupport::PencilReference oracle(*ref);
  auto s = make();
  const double dt = oracle.reference_dt();
  EXPECT_EQ(dt, s->compute_dt());
  for (int n = 0; n < 3; ++n) {
    oracle.reference_step(dt);
    s->step(dt);
  }
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).cons().flat(), s->block(0).cons().flat()),
      0);
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).prim().flat(), s->block(0).prim().flat()),
      0);
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            s->c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, s->c2p_stats().floored_zones);
}

}  // namespace
