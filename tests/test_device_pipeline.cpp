// Device offload vs the per-pencil oracle: HostPipeline::kDevice routes the
// full rhs / RK update / con2prim / CFL path through device::Device with
// persistent per-block arenas (DESIGN.md systems #4/#12), and promises
// *bitwise* identical states to the per-pencil reference in
// tests/support/pencil_reference.hpp — the kernels are the same compiled
// rhs_core bodies the host pipeline calls. This suite pins that promise
// across every reconstruction scheme, Riemann solver, physics system, and
// dimensionality, plus the restricted-block constructor, multi-step
// residency (only halo-sized payloads may cross the boundary after step
// 0, asserted via the obs byte counters), mid-run pipeline switching, the
// 2D multi-block cases under the default (latency-charging) accelerator
// model, and run_steps_dataflow's refusal of a device solver. It also
// stages a batched con2prim through every device backend and checks the
// accelerator model charges the device pipeline's transfers.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/kernels.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;

constexpr double kPi = 3.14159265358979323846;

/// Zero-cost accelerator model: no modeled latency / launch overhead, so
/// the suite exercises the full staging + stream-fencing machinery at
/// real-kernel speed.
device::AccelModel zero_cost() {
  return {0.0, std::numeric_limits<double>::infinity(), 0.0};
}

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

/// Run `nsteps` fixed-dt steps through the pencil oracle and under the
/// device pipeline on accelerator model `accel`, then require bitwise-equal
/// cons and prim fields on every block, identical dt from both the host
/// and the device-resident CFL scan, and identical con2prim health
/// counters.
template <typename Solver, typename Ic>
void expect_device_matches_pencil(const mesh::Grid& g,
                                  typename Solver::Options opt, const Ic& ic,
                                  int nsteps, device::AccelModel accel) {
  Solver ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference oracle(ref);
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = accel;
  Solver s(g, opt);
  s.initialize(ic);

  const double dt = oracle.reference_dt();
  // Pre-residency the device solver computes dt on the host mirror.
  EXPECT_EQ(dt, s.compute_dt()) << "pre-residency compute_dt drifted";
  for (int n = 0; n < nsteps; ++n) {
    oracle.reference_step(dt);
    s.step(dt);
  }
  ASSERT_TRUE(s.device_resident());
  // Post-step the device solver computes dt with its device-side CFL
  // kernel against the resident state.
  EXPECT_EQ(oracle.reference_dt(), s.compute_dt())
      << "device-resident compute_dt drifted";

  s.sync_from_device();
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

/// SRHD workload with structure along every active axis (same as
/// test_rhs_pipeline, so the two suites pin the same dynamics).
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

/// Grid + step count per dimensionality (small but multi-block in 1D/2D,
/// so the halo staging crosses real sibling boundaries).
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

class DevicePipelineSrhd : public ::testing::TestWithParam<SrhdCombo> {};

TEST_P(DevicePipelineSrhd, DeviceMatchesPencilBitwise) {
  const auto [ndim, rm, rs] = GetParam();
  const Case c = make_case(ndim);
  solver::SrhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = rs;
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrhdSolver>(c.grid, opt, srhd_ic,
                                                   c.nsteps, zero_cost());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DevicePipelineSrhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5),
        ::testing::Values(riemann::Solver::kLLF, riemann::Solver::kHLL,
                          riemann::Solver::kHLLC)));

using SrmhdCombo = std::tuple<int, recon::Method>;

class DevicePipelineSrmhd : public ::testing::TestWithParam<SrmhdCombo> {};

TEST_P(DevicePipelineSrmhd, DeviceMatchesPencilBitwise) {
  const auto [ndim, rm] = GetParam();
  const Case c = make_case(ndim);
  solver::SrmhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrmhdSolver>(c.grid, opt, srmhd_ic,
                                                    c.nsteps, zero_cost());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DevicePipelineSrmhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5)));

// Every other memcmp here runs the zero-cost model, where kernels often
// finish before the host looks and a missing stream fence can hide. The
// default PCIe-like model charges every transfer and launch, so a kernel
// that read a ghost shell before its upload landed, or a ghost fill that
// read a rim before its download did, shows up as a bit difference.
TEST(DevicePipeline, ModeledLatencySrhdMatchesPencilBitwise) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = riemann::Solver::kHLLC;
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrhdSolver>(
      c.grid, opt, srhd_ic, c.nsteps, device::AccelModel{});
}

TEST(DevicePipeline, ModeledLatencySrmhdMatchesPencilBitwise) {
  const Case c = make_case(2);
  solver::SrmhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrmhdSolver>(
      c.grid, opt, srmhd_ic, c.nsteps, device::AccelModel{});
}

// run_steps_dataflow drives the graph from a worker pool, which cannot
// drive the device streams: on a device solver it must refuse with a
// reason, before it touches the state.
TEST(DevicePipeline, DataflowRefusesDevicePipeline) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.blocks = c.blocks;
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  solver::SrhdSolver s(c.grid, opt);
  s.initialize(srhd_ic);
  parallel::ThreadPool pool(1);
  try {
    s.run_steps_dataflow(2, s.compute_dt(), pool);
    FAIL() << "run_steps_dataflow accepted a device solver";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("device pipeline"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(s.steps_taken(), 0);
  EXPECT_EQ(s.time(), 0.0);
  EXPECT_FALSE(s.device_resident());
}

// Restricted-block construction (the distributed driver's per-rank view)
// must flow through the device pipeline too: the custom ghost filler runs
// against the host mirror between the rim download and the ghost upload.
TEST(DevicePipeline, RestrictedBlockDeviceMatchesPencil) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 12, 0.0, 1.0, 0.0, 1.0);
  const mesh::BlockExtents sub{{0, 0, 0}, {20, 12, 1}};
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPPM;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.riemann = riemann::Solver::kHLL;

  auto make = [&](solver::HostPipeline p) {
    opt.pipeline = p;
    opt.accel = zero_cost();
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

  auto ref = make(solver::HostPipeline::kBatchedSimd);
  testsupport::PencilReference oracle(*ref);
  auto s = make(solver::HostPipeline::kDevice);
  const double dt = oracle.reference_dt();
  EXPECT_EQ(dt, s->compute_dt());
  for (int n = 0; n < 3; ++n) {
    oracle.reference_step(dt);
    s->step(dt);
  }
  s->sync_from_device();
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

// Mid-run pipeline switching: device -> host hands authority back to the
// host mirror (sync + residency drop), host -> device re-uploads. The
// final state must still match the pencil oracle bit for bit.
TEST(DevicePipeline, MidRunPipelineSwitchStaysBitwise) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = riemann::Solver::kHLLC;
  opt.blocks = c.blocks;

  solver::SrhdSolver ref(c.grid, opt);
  ref.initialize(srhd_ic);
  testsupport::PencilReference oracle(ref);
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  solver::SrhdSolver s(c.grid, opt);
  s.initialize(srhd_ic);

  const double dt = oracle.reference_dt();
  for (int n = 0; n < 4; ++n) oracle.reference_step(dt);

  s.step(dt);
  s.step(dt);
  EXPECT_TRUE(s.device_resident());
  // Leaving the device syncs the host mirror and drops residency.
  s.set_pipeline(solver::HostPipeline::kBatchedSimd);
  EXPECT_FALSE(s.device_resident());
  s.step(dt);  // host step against the synced mirror
  s.set_pipeline(solver::HostPipeline::kDevice);
  s.step(dt);  // re-uploads, then steps on the device
  EXPECT_TRUE(s.device_resident());
  s.sync_from_device();

  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_EQ(count_bit_diffs(ref.block(b).cons().flat(),
                              s.block(b).cons().flat()),
              0);
    EXPECT_EQ(count_bit_diffs(ref.block(b).prim().flat(),
                              s.block(b).prim().flat()),
              0);
  }
  EXPECT_EQ(oracle.c2p_stats().total_iterations,
            s.c2p_stats().total_iterations);
  EXPECT_EQ(oracle.c2p_stats().floored_zones, s.c2p_stats().floored_zones);
}

#if RSHC_OBS_ENABLED
/// Expected D2H bytes per RK stage: every block's interior rims come down
/// — exactly 2 * halo_buffer_size(b, axis) doubles per active axis (the
/// same region the sibling halo exchange reads).
template <typename Solver>
std::int64_t rim_bytes_per_stage(const Solver& s) {
  std::int64_t doubles = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    for (int axis = 0; axis < s.grid().ndim(); ++axis) {
      doubles +=
          2 * static_cast<std::int64_t>(mesh::halo_buffer_size(blk, axis));
    }
  }
  return doubles * static_cast<std::int64_t>(sizeof(double));
}

/// Expected H2D bytes per RK stage: every block's freshly filled ghost
/// shells go back up with *full* transverse extent (physical boundaries
/// fill corner ghosts, so the shells are wider than the rims).
template <typename Solver>
std::int64_t ghost_bytes_per_stage(const Solver& s) {
  std::int64_t doubles = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    for (int axis = 0; axis < s.grid().ndim(); ++axis) {
      std::int64_t shell = static_cast<std::int64_t>(blk.prim().nvar()) *
                           static_cast<std::int64_t>(blk.ghost(axis));
      for (int a = 0; a < 3; ++a) {
        if (a != axis) shell *= static_cast<std::int64_t>(blk.total(a));
      }
      doubles += 2 * shell;
    }
  }
  return doubles * static_cast<std::int64_t>(sizeof(double));
}

/// Multi-step residency accounting: after the step-0 full upload, a device
/// step moves *exactly* nstages halo payloads in each direction — nothing
/// else may cross the boundary. Pinned for both physics systems via the
/// device backend's obs byte counters.
template <typename Solver, typename Ic>
void expect_halo_only_traffic(const Ic& ic) {
  if (!obs::enabled()) GTEST_SKIP() << "obs disabled at runtime (RSHC_OBS=0)";
  typename Solver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kPeriodic, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = {2, 2, 1};
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  Solver s(mesh::Grid::make_2d(24, 16, 0.0, 1.0, 0.0, 1.0), opt);
  s.initialize(ic);
  const double dt = s.compute_dt();  // pre-residency: host scan, no traffic

  auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
  auto& d2h = obs::Registry::global().counter("device.d2h.bytes");

  s.step(dt);  // step 0: full residency upload + per-stage halo traffic
  const std::int64_t up_stage = ghost_bytes_per_stage(s);
  const std::int64_t down_stage = rim_bytes_per_stage(s);
  const std::int64_t stages = time::num_stages(opt.integrator);
  for (int n = 1; n <= 2; ++n) {
    const std::int64_t h2d0 = h2d.total();
    const std::int64_t d2h0 = d2h.total();
    s.step(dt);
    EXPECT_EQ(h2d.total() - h2d0, stages * up_stage)
        << "step " << n << " uploaded more than its ghost shells";
    EXPECT_EQ(d2h.total() - d2h0, stages * down_stage)
        << "step " << n << " downloaded more than its rims";
  }
}

TEST(DevicePipeline, HaloOnlyTransfersAfterFirstStepSrhd) {
  expect_halo_only_traffic<solver::SrhdSolver>(srhd_ic);
}

TEST(DevicePipeline, HaloOnlyTransfersAfterFirstStepSrmhd) {
  expect_halo_only_traffic<solver::SrmhdSolver>(srmhd_ic);
}

// The step-0 residency upload must be the *full* state (cons + prim of
// every ghosted cell) plus the stage halo traffic — and only once: a
// second device run of the same solver object re-uses the arenas.
TEST(DevicePipeline, ResidencyUploadIsFullStateOnce) {
  if (!obs::enabled()) GTEST_SKIP() << "obs disabled at runtime (RSHC_OBS=0)";
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kPeriodic, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = {2, 1, 1};
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  solver::SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), opt);
  s.initialize(srhd_ic);
  const double dt = s.compute_dt();

  std::int64_t full_state = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    full_state += static_cast<std::int64_t>(s.block(b).cons().size() +
                                            s.block(b).prim().size()) *
                  static_cast<std::int64_t>(sizeof(double));
  }
  auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
  const std::int64_t h2d0 = h2d.total();
  s.step(dt);
  const std::int64_t stages = time::num_stages(opt.integrator);
  EXPECT_EQ(h2d.total() - h2d0,
            full_state + stages * ghost_bytes_per_stage(s));
}
#endif  // RSHC_OBS_ENABLED

// --- offload across device backends --------------------------------------

/// Periodic 16x16 SRHD state on `pipeline`, initialized and not stepped.
/// FvSolver is pinned in memory (blocks reference its grid), so it lives
/// behind a unique_ptr.
std::unique_ptr<solver::SrhdSolver> make_evolved_solver(
    solver::HostPipeline pipeline, device::AccelModel accel) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  opt.pipeline = pipeline;
  opt.accel = accel;
  auto s = std::make_unique<solver::SrhdSolver>(g, opt);
  s->initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * kPi * x) * std::cos(2 * kPi * y);
    w.vx = 0.3;
    w.vy = -0.2;
    w.p = 1.0 + 0.1 * x;
    return w;
  });
  return s;
}

// Stage the interior conservatives, and as the guess the prims the last
// con2prim started from, through the accelerator's buffers, run the batched
// simd con2prim kernel there and bring the primitives back: the device must
// reproduce the in-place primitives bit for bit, since the kernel is
// bitwise identical to the per-zone solve. The last step is the pencil
// oracle's, which keeps those guesses.
TEST(Offload, MatchesInPlacePrimitives) {
  auto sp = make_evolved_solver(solver::HostPipeline::kBatchedSimd,
                                device::AccelModel{});
  auto& s = *sp;
  for (int i = 0; i < 5; ++i) s.step(s.compute_dt());
  testsupport::PencilReference oracle(s);
  oracle.reference_step(oracle.reference_dt());
  const mesh::FieldArray& guess = oracle.last_c2p_guess(0);
  const mesh::Block& blk = s.block(0);
  const std::size_t n = static_cast<std::size_t>(blk.interior(0)) *
                        static_cast<std::size_t>(blk.interior(1)) *
                        static_cast<std::size_t>(blk.interior(2));
  ASSERT_EQ(n, 16u * 16u);

  std::array<std::vector<double>, srhd::kNumVars> host_in;
  std::array<std::vector<double>, srhd::kNumVars> host_guess;
  std::array<std::vector<double>, srhd::kNumVars> host_out;
  std::array<std::vector<double>, srhd::kNumVars> ref;
  for (int v = 0; v < srhd::kNumVars; ++v) {
    host_in[static_cast<std::size_t>(v)].reserve(n);
    host_guess[static_cast<std::size_t>(v)].reserve(n);
    host_out[static_cast<std::size_t>(v)].assign(n, 0.0);
    ref[static_cast<std::size_t>(v)].reserve(n);
  }
  for (int k = blk.begin(2); k < blk.end(2); ++k) {
    for (int j = blk.begin(1); j < blk.end(1); ++j) {
      for (int i = blk.begin(0); i < blk.end(0); ++i) {
        for (int v = 0; v < srhd::kNumVars; ++v) {
          const auto vi = static_cast<std::size_t>(v);
          host_in[vi].push_back(blk.cons()(v, k, j, i));
          host_guess[vi].push_back(guess(v, k, j, i));
          ref[vi].push_back(blk.prim()(v, k, j, i));
        }
      }
    }
  }

  auto dev = device::make_device();
  std::array<device::Buffer, srhd::kNumVars> in_buf;
  std::array<device::Buffer, srhd::kNumVars> out_buf;
  for (int v = 0; v < srhd::kNumVars; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    in_buf[vi] = dev->alloc(n);
    out_buf[vi] = dev->alloc(n);
    dev->upload_async(host_in[vi], in_buf[vi]);
    dev->upload_async(host_guess[vi], out_buf[vi]);
  }
  auto view = [](device::Buffer& b) { return b.device_view().data(); };
  double* const in[] = {view(in_buf[0]), view(in_buf[1]), view(in_buf[2]),
                        view(in_buf[3]), view(in_buf[4])};
  double* const out[] = {view(out_buf[0]), view(out_buf[1]), view(out_buf[2]),
                         view(out_buf[3]), view(out_buf[4])};
  const double gamma = s.options().physics.eos.gamma();
  const auto c2p = s.options().physics.c2p;
  srhd::kernels::BatchStats batch;
  dev->launch(
      [&] {
        batch = srhd::kernels::simd::cons_to_prim_n(
            n, in[srhd::kD], in[srhd::kSx], in[srhd::kSy], in[srhd::kSz],
            in[srhd::kTau], out[srhd::kRho], out[srhd::kVx], out[srhd::kVy],
            out[srhd::kVz], out[srhd::kP], gamma, c2p);
      },
      n);
  for (int v = 0; v < srhd::kNumVars; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    dev->download_async(out_buf[vi], host_out[vi]);
  }
  dev->synchronize();

  EXPECT_EQ(batch.failures, 0);
  EXPECT_GT(batch.total_iterations, 0);
  for (int v = 0; v < srhd::kNumVars; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    EXPECT_EQ(count_bit_diffs(host_out[vi], ref[vi]), 0) << "prim var " << v;
  }
}

// The device pipeline's transfers pay the accelerator model's latency: the
// first step's residency upload (cons + prim) and each stage's rim download
// and ghost upload run in order, so with 1 ms per transfer the step takes
// at least 4 ms. The modeled cost changes timing only, never the state.
TEST(Offload, AccelReportsTransferTime) {
  auto host = make_evolved_solver(solver::HostPipeline::kBatchedSimd,
                                  device::AccelModel{});
  device::AccelModel slow = zero_cost();
  slow.transfer_latency_sec = 1e-3;
  auto dev = make_evolved_solver(solver::HostPipeline::kDevice, slow);
  const double dt = host->compute_dt();
  ASSERT_EQ(dt, dev->compute_dt());

  host->step(dt);
  WallTimer timer;
  dev->step(dt);
  EXPECT_GE(timer.seconds(), 4e-3);

  ASSERT_TRUE(dev->device_resident());
  dev->sync_from_device();
  EXPECT_EQ(count_bit_diffs(host->block(0).cons().flat(),
                            dev->block(0).cons().flat()),
            0);
  EXPECT_EQ(count_bit_diffs(host->block(0).prim().flat(),
                            dev->block(0).prim().flat()),
            0);
}

}  // namespace
