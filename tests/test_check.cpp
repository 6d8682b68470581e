// rshc::check runtime checker: validator classification, violation sink
// machinery, c2p failure-path coverage (unphysical conserved states heal
// through the atmosphere in every build; a *misconfigured* atmosphere is
// reported when checks are compiled in), halo pack/guard assertions.
//
// Tests that assert on recorded violations are compiled only when
// RSHC_CHECKS_ENABLED is 1 (the Debug default); the checks-off branches
// assert the documented fallback behaviour instead, so this file is
// meaningful in both configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rshc/check/check.hpp"
#include "rshc/check/halo_guard.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/con2prim.hpp"
#include "rshc/srmhd/con2prim.hpp"

namespace {

using namespace rshc;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Put the sink into count-and-continue mode for the duration of a test and
// restore the abort default afterwards, so a stray violation in any *other*
// test still aborts loudly.
struct CountScope {
  CountScope() {
    check::reset();
    check::set_action(check::Action::kCount);
  }
  ~CountScope() {
    check::set_action(check::Action::kAbort);
    check::reset();
  }
};

solver::SrhdSolver::Options periodic_opts() {
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

// --- validators (always compiled; independent of the gate) --------------

TEST(CheckValidators, AcceptsPhysicalPrim) {
  const srhd::Prim w{1.0, 0.3, -0.2, 0.1, 2.5};
  EXPECT_EQ(check::violates_prim(w), nullptr);
}

TEST(CheckValidators, ClassifiesUnphysicalPrims) {
  srhd::Prim w{1.0, 0.0, 0.0, 0.0, 1.0};
  w.rho = kNaN;
  EXPECT_STREQ(check::violates_prim(w), "non-finite rho or p");
  w = {0.0, 0.0, 0.0, 0.0, 1.0};
  EXPECT_STREQ(check::violates_prim(w), "rho <= 0");
  w = {1.0, 0.0, 0.0, 0.0, -1e-3};
  EXPECT_STREQ(check::violates_prim(w), "p <= 0");
  w = {1.0, 1.0, 0.5, 0.0, 1.0};
  EXPECT_STREQ(check::violates_prim(w), "superluminal |v| >= 1");
  w = {1.0, kNaN, 0.0, 0.0, 1.0};
  EXPECT_STREQ(check::violates_prim(w), "non-finite velocity");
  // |v| just below 1: physical in the SR sense but beyond any state the
  // face limiter can produce -> flagged as a runaway Lorentz factor.
  const double v = std::sqrt(1.0 - 1e-14);
  w = {1.0, v, 0.0, 0.0, 1.0};
  EXPECT_STREQ(check::violates_prim(w), "Lorentz factor beyond kMaxLorentz");
}

TEST(CheckValidators, ConsRejectsOnlyNonFinite) {
  srhd::Cons u{1.0, 0.2, 0.0, 0.0, 1.5};
  EXPECT_EQ(check::violates_cons(u), nullptr);
  // Unphysical-but-finite (c2p would floor this) is *legal* for a
  // conservative state mid-evolution.
  u = {1.0, 50.0, 0.0, 0.0, 0.01};
  EXPECT_EQ(check::violates_cons(u), nullptr);
  u.tau = kNaN;
  EXPECT_STREQ(check::violates_cons(u), "non-finite conservative state");
}

TEST(CheckValidators, FiniteSpan) {
  std::vector<double> buf(16, 1.0);
  EXPECT_EQ(check::violates_finite(buf), nullptr);
  buf[7] = std::numeric_limits<double>::infinity();
  EXPECT_NE(check::violates_finite(buf), nullptr);
}

// --- violation sink machinery -------------------------------------------

TEST(CheckSink, CountModeRecordsPhaseZoneAndMessage) {
  CountScope scope;
  EXPECT_EQ(check::violation_count(), 0);
  EXPECT_EQ(check::last_violation(), "");
  check::fail("c2p", "rho <= 0", "some_file.cpp", 42, {3, 7, 8, 9});
  EXPECT_EQ(check::violation_count(), 1);
  const std::string msg = check::last_violation();
  EXPECT_NE(msg.find("c2p"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rho <= 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("block 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("i=7"), std::string::npos) << msg;
  check::fail("flux", "x", "f.cpp", 1);
  EXPECT_EQ(check::violation_count(), 2);
  check::reset();
  EXPECT_EQ(check::violation_count(), 0);
  EXPECT_EQ(check::last_violation(), "");
}

TEST(CheckSinkDeathTest, AbortModeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  check::set_action(check::Action::kAbort);
  EXPECT_DEATH(check::fail("test", "deliberate abort-mode violation",
                           "f.cpp", 1),
               "deliberate abort-mode violation");
}

// --- c2p failure paths ---------------------------------------------------
// With a sane (default) atmosphere, every unphysical conserved state heals
// to a *physical* floored prim — in checks-on builds that means zero
// violations; in checks-off builds the identical fallback branch runs.

TEST(CheckC2P, UnphysicalConservedStatesHealToAtmosphere) {
  CountScope scope;
  const eos::IdealGas eos(5.0 / 3.0);
  const srhd::Con2PrimOptions opt;  // default floors

  const srhd::Cons cases[] = {
      {1.0, 50.0, 0.0, 0.0, 0.01},    // superluminal momentum: |S| >> E
      {1.0, 0.2, 0.0, 0.0, kNaN},     // NaN energy
      {-1.0, 0.0, 0.0, 0.0, 1.0},     // negative density
      {1e-30, 0.0, 0.0, 0.0, 1e-30},  // evacuated zone below the floor
  };
  for (const auto& u : cases) {
    const auto r = srhd::cons_to_prim(u, eos, opt);
    EXPECT_TRUE(r.floored);
    EXPECT_EQ(check::violates_prim(r.prim), nullptr)
        << "healed prim must be physical";
    EXPECT_DOUBLE_EQ(r.prim.rho, opt.rho_floor);
    EXPECT_DOUBLE_EQ(r.prim.p, opt.p_floor);
  }
  EXPECT_EQ(check::violation_count(), 0) << check::last_violation();
}

TEST(CheckC2P, SrmhdUnphysicalStatesHealToAtmosphere) {
  CountScope scope;
  const eos::IdealGas eos(5.0 / 3.0);
  const srmhd::Con2PrimOptions opt;  // default floors

  srmhd::Cons u{};
  u.d = 1.0;
  u.tau = kNaN;  // NaN energy with a live magnetic field
  u.bx = 0.5;
  const auto r = srmhd::cons_to_prim(u, eos, opt);
  EXPECT_TRUE(r.floored);
  EXPECT_EQ(check::violates_prim(r.prim), nullptr);
  EXPECT_EQ(check::violation_count(), 0) << check::last_violation();
}

TEST(CheckC2P, MisconfiguredAtmosphereIsTheBugTheCheckerCatches) {
  // A negative rho_floor turns the atmosphere itself unphysical: any zone
  // routed through it comes back with rho < 0. Checks-on builds report the
  // violation at the c2p boundary; checks-off builds return the bad prim
  // silently — exactly the corruption class rshc::check exists to catch.
  const eos::IdealGas eos(5.0 / 3.0);
  srhd::Con2PrimOptions opt;
  opt.rho_floor = -1.0;  // the seeded bug
  const srhd::Cons u{kNaN, 0.0, 0.0, 0.0, 1.0};

#if RSHC_CHECKS_ENABLED
  CountScope scope;
  const auto r = srhd::cons_to_prim(u, eos, opt);
  EXPECT_TRUE(r.floored);
  EXPECT_GE(check::violation_count(), 1);
  const std::string msg = check::last_violation();
  EXPECT_NE(msg.find("srhd.con2prim"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rho <= 0"), std::string::npos) << msg;
#else
  const auto r = srhd::cons_to_prim(u, eos, opt);
  EXPECT_TRUE(r.floored);
  EXPECT_DOUBLE_EQ(r.prim.rho, -1.0);  // silent garbage-out, as documented
#endif
}

// --- solver-level seeded bug: NaN zone + broken atmosphere ---------------

TEST(CheckSolver, SeededUnphysicalZoneIsReportedWithCoordinates) {
  auto opt = periodic_opts();
  opt.physics.c2p.rho_floor = -1.0;  // seeded misconfiguration
  const mesh::Grid g = mesh::Grid::make_1d(16, 0.0, 1.0);
  solver::SrhdSolver s(g, opt);
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });

  // Corrupt one interior conservative zone (global cell 8).
  auto& blk = s.block(0);
  blk.cons()(srhd::kD, 0, 0, blk.begin(0) + 8) = kNaN;

#if RSHC_CHECKS_ENABLED
  CountScope scope;
  s.step(1e-3);
  EXPECT_GE(check::violation_count(), 1);
  const std::string msg = check::last_violation();
  // Every report carries zone provenance (block id + i/j/k).
  EXPECT_NE(msg.find("block"), std::string::npos) << msg;
  EXPECT_NE(msg.find("i="), std::string::npos) << msg;
#else
  s.step(1e-3);
  // Without checks the broken atmosphere leaks rho = -1 into the state.
  const auto rho = s.gather_prim_var(srhd::kRho);
  EXPECT_DOUBLE_EQ(rho[8], -1.0);
#endif
  EXPECT_GT(s.c2p_stats().floored_zones, 0);
}

TEST(CheckSolver, SaneFloorsHealNaNZoneWithoutViolations) {
  auto opt = periodic_opts();  // default (positive) floors
  const mesh::Grid g = mesh::Grid::make_1d(16, 0.0, 1.0);
  solver::SrhdSolver s(g, opt);
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  auto& blk = s.block(0);
  blk.cons()(srhd::kTau, 0, 0, blk.begin(0) + 5) = kNaN;

  CountScope scope;
  s.step(1e-3);
  EXPECT_EQ(check::violation_count(), 0) << check::last_violation();
  EXPECT_GT(s.c2p_stats().floored_zones, 0);
  const auto rho = s.gather_prim_var(srhd::kRho);
  for (const double r : rho) EXPECT_TRUE(std::isfinite(r));
}

#if RSHC_CHECKS_ENABLED
// A NaN prim zone reaches the batched face kernels unchanged (NaN passes
// limit_face's std::max and the velocity cap). The row checks that follow
// each kernel call must name the interfaces beside it, on the row-major x
// tiles and on the plane-major y tiles alike.
TEST(CheckSolver, NaNFaceStateIsReportedAtItsInterfaceOnEveryAxis) {
  auto opt = periodic_opts();
  opt.recon = recon::Method::kPCM;
  const mesh::Grid g = mesh::Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver s(g, opt);
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.1, -0.1, 0.0, 1.0};
  });
  auto& blk = s.block(0);
  const int i0 = blk.begin(0) + 4;
  const int j0 = blk.begin(1) + 3;
  blk.prim()(srhd::kRho, 0, j0, i0) = kNaN;

  // Count mode keeps only the last report; the hook keeps them all.
  static std::vector<std::string> reports;
  reports.clear();
  CountScope scope;
  check::set_failure_hook([](const char* r) { reports.emplace_back(r); });
  s.compute_rhs_all();
  check::set_failure_hook(nullptr);

  EXPECT_GE(check::violation_count(), 1);
  const auto reported = [](int i, int j) {
    const std::string zone = "zone i=" + std::to_string(i) +
                             " j=" + std::to_string(j) + " k=0)";
    return std::any_of(reports.begin(), reports.end(),
                       [&zone](const std::string& r) {
                         return r.find("[flux]") != std::string::npos &&
                                r.find(zone) != std::string::npos;
                       });
  };
  // Interface (i0 - 1/2, j0) exists only on the x axis, and
  // (i0, j0 - 1/2) only on the y axis; each reports its left zone.
  EXPECT_TRUE(reported(i0 - 1, j0)) << check::last_violation();
  EXPECT_TRUE(reported(i0, j0 - 1)) << check::last_violation();
  // Interfaces that do not touch the poisoned zone stay silent.
  EXPECT_FALSE(reported(i0 - 2, j0));
  EXPECT_FALSE(reported(i0, j0 - 2));
}
#endif  // RSHC_CHECKS_ENABLED

// --- halo buffer checks --------------------------------------------------

TEST(CheckHalo, PackedFaceWithNaNIsReported) {
  const mesh::Grid g = mesh::Grid::make_1d(8, 0.0, 1.0);
  mesh::Block blk(g, mesh::BlockExtents{{0, 0, 0}, {8, 1, 1}}, 2, 5, 5);
  for (int v = 0; v < 5; ++v) {
    for (int i = 0; i < blk.total(0); ++i) blk.prim()(v, 0, 0, i) = 1.0;
  }
  // NaN inside the low-face send layers (local i in [ng, 2*ng)).
  blk.prim()(srhd::kP, 0, 0, blk.begin(0)) = kNaN;

  std::vector<double> buf(mesh::halo_buffer_size(blk, 0));
  CountScope scope;
  mesh::pack_face(blk, 0, 0, buf);
#if RSHC_CHECKS_ENABLED
  EXPECT_GE(check::violation_count(), 1);
  EXPECT_NE(check::last_violation().find("halo"), std::string::npos);
#else
  EXPECT_EQ(check::violation_count(), 0);
#endif
}

TEST(CheckHaloGuard, LegalProtocolIsSilent) {
  CountScope scope;
  check::HaloGuard guard;
  for (int axis = 0; axis < 3; ++axis) {
    for (int side = 0; side < 2; ++side) {
      guard.post(axis, side);
      guard.complete(axis, side);
      guard.consume(axis, side);
    }
  }
  EXPECT_EQ(check::violation_count(), 0) << check::last_violation();
}

#if RSHC_CHECKS_ENABLED
TEST(CheckHaloGuard, ConsumeBeforePostIsReported) {
  CountScope scope;
  check::HaloGuard guard;
  guard.consume(0, 0);
  EXPECT_EQ(check::violation_count(), 1);
  EXPECT_NE(check::last_violation().find("no exchange posted"),
            std::string::npos);
}

TEST(CheckHaloGuard, ConsumeBeforeCompleteIsReported) {
  CountScope scope;
  check::HaloGuard guard;
  guard.post(1, 1);
  guard.consume(1, 1);
  EXPECT_EQ(check::violation_count(), 1);
  EXPECT_NE(check::last_violation().find("before its exchange completed"),
            std::string::npos);
}

TEST(CheckHaloGuard, DoublePostIsReported) {
  CountScope scope;
  check::HaloGuard guard;
  guard.post(2, 0);
  guard.post(2, 0);
  EXPECT_EQ(check::violation_count(), 1);
  EXPECT_NE(check::last_violation().find("posted twice"), std::string::npos);
}
#endif  // RSHC_CHECKS_ENABLED

// --- task-graph assertions stay silent on healthy graphs ----------------

TEST(CheckGraph, HealthyGraphRunsWithoutViolations) {
  CountScope scope;
  parallel::ThreadPool pool(4);
  parallel::TaskGraph graph;
  std::atomic<int> ran{0};  // relaxed-sufficient test counter (seq_cst fine)
  const auto a = graph.add([&] { ran++; });
  const auto b = graph.add([&] { ran++; }, {a});
  const auto c = graph.add([&] { ran++; }, {a});
  graph.add([&] { ran++; }, {b, c});
  for (int rep = 0; rep < 3; ++rep) {
    ran = 0;
    graph.run(pool);
    EXPECT_EQ(ran.load(), 4);
  }
  EXPECT_EQ(check::violation_count(), 0) << check::last_violation();
}

}  // namespace
