// Cross-cutting stress and edge coverage: heavy message traffic, device
// stream churn, 3D decomposition, integrator conservation sweep, and the
// wavelet 2D thresholding path that the core suites do not exercise.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "rshc/comm/communicator.hpp"
#include "rshc/device/device.hpp"
#include "rshc/mesh/decomposition.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/wavelet/interp_wavelet.hpp"

namespace {

using namespace rshc;

TEST(Stress, ManySmallMessagesStayOrderedPerLink) {
  comm::run_world(3, [](comm::Communicator& c) {
    constexpr int kN = 500;
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int i = 0; i < kN; ++i) {
      c.send_value(next, 5, static_cast<double>(i));
    }
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(c.recv_value<double>(prev, 5), static_cast<double>(i));
    }
  });
}

TEST(Stress, InterleavedTagsAcrossManyRounds) {
  comm::run_world(2, [](comm::Communicator& c) {
    for (int round = 0; round < 50; ++round) {
      if (c.rank() == 0) {
        c.send_value(1, 2, 2.0 * round);
        c.send_value(1, 1, 1.0 * round);
        EXPECT_DOUBLE_EQ(c.recv_value<double>(1, 3), 3.0 * round);
      } else {
        // Deliberately receive in the "wrong" order.
        EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 1), 1.0 * round);
        EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 2), 2.0 * round);
        c.send_value(0, 3, 3.0 * round);
      }
    }
  });
}

TEST(Stress, AccelStreamSurvivesHighChurn) {
  auto dev = device::make_device();
  device::Buffer buf = dev->alloc(64);
  std::vector<double> host(64, 0.0);
  dev->upload_async(host, buf);
  auto view = buf.device_view();
  for (int i = 0; i < 300; ++i) {
    dev->launch([view] {
      for (double& x : view) x += 1.0;
    });
  }
  dev->download_async(buf, host);
  dev->synchronize();
  for (const double x : host) EXPECT_DOUBLE_EQ(x, 300.0);
}

TEST(Stress, ThreeDimensionalDecompositionPartitions) {
  const mesh::Grid g(3, {12, 10, 8}, {0, 0, 0}, {1, 1, 1});
  const mesh::Decomposition d(g, {3, 2, 2});
  EXPECT_EQ(d.num_blocks(), 12);
  long long covered = 0;
  for (int b = 0; b < d.num_blocks(); ++b) {
    covered += d.extents(b).num_cells();
    // Every block must have a neighbour on every axis under periodicity.
    for (int a = 0; a < 3; ++a) {
      EXPECT_TRUE(d.neighbor(b, a, 0, true).has_value());
      EXPECT_TRUE(d.neighbor(b, a, 1, true).has_value());
    }
  }
  EXPECT_EQ(covered, g.num_cells());
}

class IntegratorConservation
    : public ::testing::TestWithParam<time::Integrator> {};

TEST_P(IntegratorConservation, PeriodicRunConservesForEveryIntegrator) {
  const mesh::Grid g = mesh::Grid::make_1d(48, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.integrator = GetParam();
  opt.cfl = 0.2;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  solver::SrhdSolver s(g, opt);
  s.initialize(problems::smooth_wave_ic({}));
  const auto before = s.total_cons();
  for (int i = 0; i < 20; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-12 * before.d);
  EXPECT_NEAR(after.tau, before.tau, 1e-11 * std::abs(before.tau));
}

INSTANTIATE_TEST_SUITE_P(Integrators, IntegratorConservation,
                         ::testing::Values(time::Integrator::kEuler,
                                           time::Integrator::kSspRk2,
                                           time::Integrator::kSspRk3));

TEST(Stress, Wavelet2dThresholdCompressesSmoothField) {
  const int levels = 5;
  const std::size_t n = wavelet::grid_size(levels);
  std::vector<double> v(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(n - 1);
      const double y = static_cast<double>(j) / static_cast<double>(n - 1);
      v[j * n + i] = std::sin(2.0 * x + y);
    }
  }
  const auto original = v;
  wavelet::forward_2d(v, n, n, levels);
  // Threshold row-wise (the 2D coefficients live on the same lattice).
  std::size_t zeroed = 0;
  for (auto& c : v) {
    if (std::abs(c) < 1e-6) {
      c = 0.0;
      ++zeroed;
    }
  }
  EXPECT_GT(zeroed, v.size() / 3);
  wavelet::inverse_2d(v, n, n, levels);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], original[i], 1e-4) << i;
  }
}

TEST(Stress, SolverSurvivesManyTinySteps) {
  // dt far below CFL must be harmless (robustness against driver bugs
  // that produce tiny steps near output times).
  const mesh::Grid g = mesh::Grid::make_1d(32, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  solver::SrhdSolver s(g, opt);
  s.initialize(problems::smooth_wave_ic({}));
  for (int i = 0; i < 200; ++i) s.step(1e-9);
  EXPECT_NEAR(s.time(), 2e-7, 1e-12);
  for (const double r : s.gather_prim_var(srhd::kRho)) {
    EXPECT_TRUE(std::isfinite(r));
  }
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

}  // namespace
