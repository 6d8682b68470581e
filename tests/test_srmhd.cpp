// SRMHD physics: conservative map, fluxes, fast-speed bounds, GLM pieces,
// the 1D-W con2prim roundtrip sweep (with and without magnetization), and
// the batched span kernels against the per-zone functions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "rshc/solver/physics.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/con2prim.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/srmhd/state.hpp"

namespace {

using namespace rshc;
using srmhd::Cons;
using srmhd::Prim;

const eos::IdealGas kEos(5.0 / 3.0);

Prim make_prim(double rho, double vx, double vy, double vz, double p,
               double bx, double by, double bz) {
  Prim w;
  w.rho = rho; w.vx = vx; w.vy = vy; w.vz = vz; w.p = p;
  w.bx = bx; w.by = by; w.bz = bz;
  return w;
}

TEST(SrmhdState, UnmagnetizedConsMatchesSrhd) {
  const Prim w = make_prim(1.3, 0.4, -0.2, 0.1, 0.9, 0.0, 0.0, 0.0);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const srhd::Prim wh{1.3, 0.4, -0.2, 0.1, 0.9};
  const srhd::Cons uh = srhd::prim_to_cons(wh, kEos);
  EXPECT_NEAR(u.d, uh.d, 1e-14);
  EXPECT_NEAR(u.sx, uh.sx, 1e-13);
  EXPECT_NEAR(u.sy, uh.sy, 1e-13);
  EXPECT_NEAR(u.tau, uh.tau, 1e-13);
}

TEST(SrmhdState, UnmagnetizedFluxMatchesSrhd) {
  const Prim w = make_prim(1.3, 0.4, -0.2, 0.1, 0.9, 0.0, 0.0, 0.0);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const srhd::Prim wh{1.3, 0.4, -0.2, 0.1, 0.9};
  const srhd::Cons uh = srhd::prim_to_cons(wh, kEos);
  for (int axis = 0; axis < 3; ++axis) {
    const Cons f = srmhd::flux(w, u, axis, kEos);
    const srhd::Cons fh = srhd::flux(wh, uh, axis);
    EXPECT_NEAR(f.d, fh.d, 1e-13);
    EXPECT_NEAR(f.sx, fh.sx, 1e-13);
    EXPECT_NEAR(f.sy, fh.sy, 1e-13);
    EXPECT_NEAR(f.tau, fh.tau, 1e-13);
  }
}

TEST(SrmhdState, StaticMagnetizedEnergyIncludesFieldEnergy) {
  const Prim w = make_prim(1.0, 0.0, 0.0, 0.0, 1.0, 0.3, 0.4, 0.0);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const double eps = kEos.specific_internal_energy(1.0, 1.0);
  // tau = rho*eps + B^2/2 at rest.
  EXPECT_NEAR(u.tau, eps + 0.5 * 0.25, 1e-13);
  EXPECT_DOUBLE_EQ(u.bx, 0.3);
  EXPECT_DOUBLE_EQ(u.by, 0.4);
}

TEST(SrmhdState, MagneticTensionAppearsInMomentumFlux) {
  // Static gas, field along x: F_x(S_x) = p + B^2/2 - Bx^2 (tension),
  // F_x(S_y) = -Bx By.
  const Prim w = make_prim(1.0, 0.0, 0.0, 0.0, 2.0, 0.5, 0.3, 0.0);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const Cons f = srmhd::flux(w, u, 0, kEos);
  const double b2 = 0.25 + 0.09;
  EXPECT_NEAR(f.sx, 2.0 + 0.5 * b2 - 0.25, 1e-13);
  EXPECT_NEAR(f.sy, -0.5 * 0.3, 1e-13);
}

TEST(SrmhdState, InductionFluxIsAntisymmetric) {
  const Prim w = make_prim(1.0, 0.3, 0.2, 0.0, 1.0, 0.1, 0.4, 0.2);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const Cons fx = srmhd::flux(w, u, 0, kEos);
  EXPECT_DOUBLE_EQ(fx.bx, 0.0);  // F_x(B_x) = 0 pre-GLM
  EXPECT_NEAR(fx.by, 0.3 * 0.4 - 0.2 * 0.1, 1e-14);  // vx By - vy Bx
  EXPECT_NEAR(fx.bz, 0.3 * 0.2 - 0.0 * 0.1, 1e-14);
}

TEST(SrmhdState, FastSpeedReducesToSoundSpeedUnmagnetized) {
  const Prim w = make_prim(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0);
  const auto s = srmhd::fast_speeds(w, 0, kEos);
  EXPECT_NEAR(s.lambda_plus, kEos.sound_speed(1.0, 1.0), 1e-12);
}

TEST(SrmhdState, FastSpeedGrowsWithFieldButStaysCausal) {
  const Prim weak = make_prim(1.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.0, 0.0);
  const Prim strong = make_prim(1.0, 0.0, 0.0, 0.0, 0.1, 10.0, 0.0, 0.0);
  const auto sw = srmhd::fast_speeds(weak, 1, kEos);
  const auto ss = srmhd::fast_speeds(strong, 1, kEos);
  EXPECT_GT(ss.lambda_plus, sw.lambda_plus);
  EXPECT_LT(ss.lambda_plus, 1.0);
  EXPECT_GT(srmhd::max_signal_speed(strong, kEos, 3), 0.9);
}

// --- con2prim sweep -------------------------------------------------------

struct MhdC2PCase {
  double v;      // |v|, split over axes
  double p;
  double b;      // |B|, oblique
};

class MhdRoundTrip : public ::testing::TestWithParam<MhdC2PCase> {};

TEST_P(MhdRoundTrip, RecoversPrimitives) {
  const auto c = GetParam();
  const Prim w = make_prim(1.0, 0.6 * c.v, 0.64 * c.v, 0.48 * c.v, c.p,
                           0.7 * c.b, 0.1 * c.b, -0.7 * c.b);
  const Cons u = srmhd::prim_to_cons(w, kEos);
  const auto r = srmhd::cons_to_prim(u, kEos);
  ASSERT_TRUE(r.converged) << "v=" << c.v << " p=" << c.p << " B=" << c.b;
  EXPECT_NEAR(r.prim.rho, w.rho, 1e-7 * w.rho);
  EXPECT_NEAR(r.prim.p, w.p, 2e-6 * w.p);
  EXPECT_NEAR(r.prim.vx, w.vx, 1e-7);
  EXPECT_NEAR(r.prim.vy, w.vy, 1e-7);
  EXPECT_NEAR(r.prim.vz, w.vz, 1e-7);
  EXPECT_DOUBLE_EQ(r.prim.bx, w.bx);  // B passes through exactly
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MhdRoundTrip,
    ::testing::Values(MhdC2PCase{0.0, 1.0, 0.0}, MhdC2PCase{0.0, 1.0, 1.0},
                      MhdC2PCase{0.5, 0.1, 0.5}, MhdC2PCase{0.9, 1.0, 0.1},
                      MhdC2PCase{0.5, 1e-4, 2.0}, MhdC2PCase{0.3, 100.0, 5.0},
                      MhdC2PCase{0.95, 10.0, 1.0},
                      MhdC2PCase{0.1, 1e-6, 1e-3}));

TEST(MhdCon2Prim, MagneticallyDominatedStillConverges) {
  // Magnetization sigma = B^2/rho ~ 100.
  const Prim w = make_prim(1.0, 0.1, 0.0, 0.0, 0.01, 10.0, 0.0, 0.0);
  const auto r = srmhd::cons_to_prim(srmhd::prim_to_cons(w, kEos), kEos);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.prim.rho, 1.0, 1e-6);
}

TEST(MhdCon2Prim, EvacuatedZoneKeepsField) {
  Cons u;
  u.d = 1e-30;
  u.bx = 0.7;
  u.psi = 0.2;
  const auto r = srmhd::cons_to_prim(u, kEos);
  EXPECT_TRUE(r.floored);
  EXPECT_DOUBLE_EQ(r.prim.bx, 0.7);  // field is divergence-constrained
  EXPECT_DOUBLE_EQ(r.prim.psi, 0.2);
  EXPECT_GT(r.prim.rho, 0.0);
}

TEST(MhdCon2Prim, NonFiniteInputFloorsQuietly) {
  Cons u;
  u.d = 1.0;
  u.tau = std::nan("");
  srmhd::Con2PrimResult r;
  EXPECT_NO_THROW(r = srmhd::cons_to_prim(u, kEos));
  EXPECT_TRUE(r.floored);
}

// --- GLM -------------------------------------------------------------------

TEST(Glm, ContinuousStateGivesContinuousFlux) {
  const auto f = srmhd::glm_interface_flux(0.4, 0.1, 0.4, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(f.flux_bn, 0.1);   // psi* = psi
  EXPECT_DOUBLE_EQ(f.flux_psi, 0.4);  // ch^2 Bn* = Bn
}

TEST(Glm, JumpIsUpwinded) {
  // Pure Bn jump: psi* = -ch dBn / 2, Bn* = mean.
  const auto f = srmhd::glm_interface_flux(0.0, 0.0, 1.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(f.flux_bn, -0.5);  // = psi*
  EXPECT_DOUBLE_EQ(f.flux_psi, 0.5);  // = ch^2 Bn*
  // Pure psi jump: Bn* picks up -dpsi / (2 ch).
  const auto g = srmhd::glm_interface_flux(0.2, 0.0, 0.2, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(g.flux_bn, 0.5);          // psi* = mean = 0.5
  EXPECT_DOUBLE_EQ(g.flux_psi, 0.2 - 0.5);   // Bn* = 0.2 - 0.5
}

TEST(Glm, DampingFactorBehaviour) {
  srmhd::GlmParams glm;
  glm.alpha = 0.5;
  const double f = srmhd::glm_damping_factor(glm, 0.01, 0.01);
  EXPECT_NEAR(f, std::exp(-0.5), 1e-12);
  glm.enabled = false;
  EXPECT_DOUBLE_EQ(srmhd::glm_damping_factor(glm, 0.01, 0.01), 1.0);
  glm.enabled = true;
  glm.alpha = 0.0;
  EXPECT_DOUBLE_EQ(srmhd::glm_damping_factor(glm, 0.01, 0.01), 1.0);
}

TEST(SrmhdCons, ArithmeticCoversAllNineComponents) {
  Cons a;
  a.d = 1; a.sx = 2; a.sy = 3; a.sz = 4; a.tau = 5;
  a.bx = 6; a.by = 7; a.bz = 8; a.psi = 9;
  const Cons two = 2.0 * a;
  EXPECT_DOUBLE_EQ(two.psi, 18);
  EXPECT_DOUBLE_EQ(two.bz, 16);
  const Cons diff = two - a;
  EXPECT_DOUBLE_EQ(diff.by, 7);
  EXPECT_DOUBLE_EQ(a.s_dot_b(), 2 * 6 + 3 * 7 + 4 * 8);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Both kernel TUs (scalar and simd) of the SRMHD span kernels, and of the
// physics-agnostic rk_combine_n, must reproduce the per-zone /
// per-interface functions bit for bit: the host pipeline runs the simd
// variants, the per-pencil test oracle the per-zone functions, and the
// BM_*Batch micro-benchmarks time the scalar variants against the simd
// ones.
TEST(SrmhdBatchKernels, BothVariantsMatchPerZoneFunctionsBitwise) {
  using P = solver::SrmhdPhysics;
  constexpr int nv = P::kNumPrim;
  constexpr std::size_t n = 37;  // not a multiple of any vector width
  const P::Context ctx;
  std::mt19937 rng(14);
  std::uniform_real_distribution<double> urho(0.05, 5.0);
  std::uniform_real_distribution<double> uv(-0.55, 0.55);
  std::uniform_real_distribution<double> up(1e-3, 5.0);
  std::uniform_real_distribution<double> ub(-2.0, 2.0);
  std::uniform_real_distribution<double> upsi(-0.1, 0.1);
  auto draw = [&] {
    Prim w = make_prim(urho(rng), uv(rng), uv(rng), uv(rng), up(rng),
                       ub(rng), ub(rng), ub(rng));
    w.psi = upsi(rng);
    return w;
  };
  auto components = [](const Prim& w) {
    return std::array<double, nv>{w.rho, w.vx, w.vy, w.vz, w.p,
                                  w.bx,  w.by, w.bz, w.psi};
  };
  std::vector<Prim> wl(n);
  std::vector<Prim> wr(n);
  std::vector<Cons> u(n);
  std::array<std::vector<double>, nv> wl_soa;
  std::array<std::vector<double>, nv> wr_soa;
  std::array<std::vector<double>, nv> u_soa;
  for (int v = 0; v < nv; ++v) {
    wl_soa[v].resize(n);
    wr_soa[v].resize(n);
    u_soa[v].resize(n);
  }
  double q[nv];
  for (std::size_t i = 0; i < n; ++i) {
    wl[i] = draw();
    wr[i] = draw();
    u[i] = P::to_cons(wl[i], ctx);
    P::cons_components(u[i], q);
    const auto cl = components(wl[i]);
    const auto cr = components(wr[i]);
    for (int v = 0; v < nv; ++v) {
      u_soa[v][i] = q[v];
      wl_soa[v][i] = cl[v];
      wr_soa[v][i] = cr[v];
    }
  }
  const double* uptr[nv];
  const double* wlp[nv];
  const double* wrp[nv];
  for (int v = 0; v < nv; ++v) {
    uptr[v] = u_soa[v].data();
    wlp[v] = wl_soa[v].data();
    wrp[v] = wr_soa[v].data();
  }

  for (const bool simd : {false, true}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");

    // Con2prim: prims and Newton/floor counters.
    std::array<std::vector<double>, nv> w_soa;
    double* wptr[nv];
    for (int v = 0; v < nv; ++v) {
      w_soa[v].assign(n, 0.0);
      wptr[v] = w_soa[v].data();
    }
    solver::C2PStats stats;
    P::cons_to_prim_n(simd, n, uptr, wptr, ctx, stats);
    solver::C2PStats ref_stats;
    int diffs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto ref = components(P::to_prim(u[i], ctx, ref_stats));
      for (int v = 0; v < nv; ++v) diffs += !same_bits(w_soa[v][i], ref[v]);
    }
    EXPECT_EQ(diffs, 0) << "cons_to_prim_n";
    EXPECT_EQ(stats.total_iterations, ref_stats.total_iterations);
    EXPECT_EQ(stats.floored_zones, ref_stats.floored_zones);

    // Max signal speed, every dimensionality.
    std::vector<double> speed(n);
    for (int ndim = 1; ndim <= 3; ++ndim) {
      P::max_speed_n(simd, n, wlp, speed.data(), ctx, ndim);
      diffs = 0;
      for (std::size_t i = 0; i < n; ++i) {
        diffs += !same_bits(speed[i], P::max_speed(wl[i], ctx, ndim));
      }
      EXPECT_EQ(diffs, 0) << "max_speed_n ndim=" << ndim;
    }

    // Limited face states + HLL-GLM flux, every axis.
    std::array<std::vector<double>, nv> f_soa;
    double* fptr[nv];
    for (int v = 0; v < nv; ++v) {
      f_soa[v].assign(n, 0.0);
      fptr[v] = f_soa[v].data();
    }
    for (int axis = 0; axis < 3; ++axis) {
      ASSERT_TRUE(P::interface_flux_n(simd, n, axis, wlp, wrp, fptr, ctx));
      diffs = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Prim a = wl[i];
        Prim b = wr[i];
        P::limit_face_state(a, ctx);
        P::limit_face_state(b, ctx);
        P::cons_components(P::interface_flux(a, b, axis, ctx), q);
        for (int v = 0; v < nv; ++v) diffs += !same_bits(f_soa[v][i], q[v]);
      }
      EXPECT_EQ(diffs, 0) << "interface_flux_n axis=" << axis;
    }

    // RK stage combination keeps the left-associated expression shape.
    const double a = 0.75;
    const double b = 0.25;
    const double c = 0.25 * 1.3e-3;
    std::vector<double> y = wr_soa[srmhd::kP];
    solver::rk_combine_n(simd, n, a, wl_soa[srmhd::kP].data(), b, y.data(), c,
                         wl_soa[srmhd::kBy].data());
    diffs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ref = (a * wl_soa[srmhd::kP][i] + b * wr_soa[srmhd::kP][i]) +
                         c * wl_soa[srmhd::kBy][i];
      diffs += !same_bits(y[i], ref);
    }
    EXPECT_EQ(diffs, 0) << "rk_combine_n";
  }
}

}  // namespace
