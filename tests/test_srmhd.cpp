// SRMHD physics: conservative map, fluxes, fast-speed bounds, GLM pieces,
// the 1D-W con2prim roundtrip sweep (with and without magnetization), its
// analytic Newton slope against finite differences, and the batched span
// kernels against the per-zone functions, cold and warm-started.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "rshc/solver/physics.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/con2prim.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/srmhd/kernels.hpp"
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

/// A seeded primitive state across the extreme regimes: rest density
/// 1e-4..1e4, p / rho from 1e-8 to 1e8, Lorentz factor up to 50 and
/// magnetization sigma = B^2 / rho up to 1e4 (one state in eight is
/// unmagnetized), each vector in a random direction.
Prim extreme_prim(std::mt19937& rng) {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  auto direction = [&](double len, double& x, double& y, double& z) {
    const double cth = 2.0 * u01(rng) - 1.0;
    const double sth = std::sqrt(1.0 - cth * cth);
    const double phi = 2.0 * M_PI * u01(rng);
    x = len * sth * std::cos(phi);
    y = len * sth * std::sin(phi);
    z = len * cth;
  };
  Prim w;
  w.rho = std::pow(10.0, -4.0 + 8.0 * u01(rng));
  w.p = w.rho * std::pow(10.0, -8.0 + 16.0 * u01(rng));
  const double W = std::pow(50.0, u01(rng));
  direction(std::sqrt(1.0 - 1.0 / (W * W)), w.vx, w.vy, w.vz);
  const double sigma = std::pow(10.0, -6.0 + 10.0 * u01(rng));
  const double b = u01(rng) < 0.125 ? 0.0 : std::sqrt(sigma * w.rho);
  direction(b, w.bx, w.by, w.bz);
  w.psi = 0.2 * u01(rng) - 0.1;
  return w;
}

/// True when cons_to_prim runs its z_hi doubling loop on `u`.
bool needs_bracket_expansion(const Cons& u) {
  const auto s = srmhd::detail::c2p_start(srmhd::detail::c2p_input(u), kEos,
                                          srmhd::Con2PrimOptions{});
  return s.valid && s.below;
}

/// Conservative states for the c2p oracle: mostly physical extreme states,
/// plus every kind of zone the atmosphere policy, the z_hi expansion or the
/// bisection fallback has to handle.
std::vector<Cons> c2p_inputs(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Cons> out(n);
  for (auto& u : out) {
    u = srmhd::prim_to_cons(extreme_prim(rng), kEos);
    switch (std::uniform_int_distribution<int>(0, 25)(rng)) {
      case 0:  // evacuated
        u.d = 1e-20;
        u.tau = 1e-20;
        break;
      case 1: u.d = nan; break;
      case 2: u.tau = nan; break;
      case 3: u.sy = nan; break;
      case 4: u.bz = nan; break;
      case 5: u.tau = inf; break;
      case 6: u.sx = -inf; break;
      case 7: u.bx = inf; break;
      case 8:  // negative tau
        u.tau = -0.5 * std::abs(u.tau);
        break;
      case 9: {  // |S| beyond E
        const double f = 1.0 + u01(rng);
        u.sx *= f;
        u.sy *= f;
        u.sz *= f;
        break;
      }
      case 10: {  // |S| far beyond E: v^2 >= 1 at the first z_hi
        const double f = 3.0 + 1e3 * u01(rng);
        u.sx = f * (std::abs(u.tau + u.d) + u.b_sq() + 1.0);
        break;
      }
      case 11:  // off the prim_to_cons manifold
        u.tau *= 1.0 + 1e-3 * u01(rng);
        break;
      case 12:  // physical, but below the density floor
        u = 1e-16 * u;
        break;
      default:
        break;
    }
  }
  return out;
}

/// The nine prim components in PrimVar order.
std::array<double, srmhd::kNumVars> prim_components(const Prim& w) {
  return {w.rho, w.vx, w.vy, w.vz, w.p, w.bx, w.by, w.bz, w.psi};
}

/// Run both c2p kernel variants and the per-zone cons_to_prim on `in` and
/// require the same bits in every prim, the same iteration total and the
/// same failure count. `guess` (zero-filled when empty) fills the kernels'
/// prim arrays and is the per-zone call's guess.
void expect_c2p_matches_reference(const std::vector<Cons>& in,
                                  const srmhd::Con2PrimOptions& opt,
                                  std::vector<Prim> guess = {}) {
  namespace k = srmhd::kernels;
  constexpr int nv = srmhd::kNumVars;
  const std::size_t n = in.size();
  guess.resize(n);
  std::array<std::vector<double>, nv> u;
  std::array<std::vector<double>, nv> ref;
  for (int v = 0; v < nv; ++v) {
    u[v].resize(n);
    ref[v].resize(n);
  }
  long long ref_iters = 0;
  long long ref_failures = 0;
  double q[nv];
  for (std::size_t i = 0; i < n; ++i) {
    solver::SrmhdPhysics::cons_components(in[i], q);
    for (int v = 0; v < nv; ++v) u[v][i] = q[v];
    const srmhd::Con2PrimResult r =
        srmhd::cons_to_prim(in[i], kEos, opt, guess[i]);
    const auto c = prim_components(r.prim);
    for (int v = 0; v < nv; ++v) ref[v][i] = c[v];
    ref_iters += r.iterations;
    ref_failures += r.floored ? 1 : 0;
  }
  for (const auto run :
       {&k::scalar::cons_to_prim_n, &k::simd::cons_to_prim_n}) {
    SCOPED_TRACE(run == &k::simd::cons_to_prim_n ? "simd" : "scalar");
    std::array<std::vector<double>, nv> w;
    for (auto& row : w) row.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = prim_components(guess[i]);
      for (int v = 0; v < nv; ++v) w[v][i] = c[v];
    }
    const k::BatchStats s = run(
        n, u[srmhd::kD].data(), u[srmhd::kSx].data(), u[srmhd::kSy].data(),
        u[srmhd::kSz].data(), u[srmhd::kTau].data(), u[srmhd::kBx].data(),
        u[srmhd::kBy].data(), u[srmhd::kBz].data(), u[srmhd::kPsi].data(),
        w[srmhd::kRho].data(), w[srmhd::kVx].data(), w[srmhd::kVy].data(),
        w[srmhd::kVz].data(), w[srmhd::kP].data(), w[srmhd::kBx].data(),
        w[srmhd::kBy].data(), w[srmhd::kBz].data(), w[srmhd::kPsi].data(),
        kEos.gamma(), opt);
    for (int v = 0; v < nv; ++v) {
      // An empty vector's data() may be null, which memcmp must not see.
      EXPECT_TRUE(n == 0 || std::memcmp(w[v].data(), ref[v].data(),
                                        n * sizeof(double)) == 0)
          << "prim var " << v;
    }
    EXPECT_EQ(s.total_iterations, ref_iters);
    EXPECT_EQ(s.failures, ref_failures);
  }
}

// Both kernel TUs (scalar and simd) of the SRMHD span kernels, and of the
// physics-agnostic rk_combine_n, must reproduce the per-zone /
// per-interface functions bit for bit (memcmp, so -0.0 and NaN bits
// count): the host pipeline runs the simd variants, the per-pencil test
// oracle the per-zone functions, and the BM_*Batch micro-benchmarks time
// the scalar variants against the simd ones. The c2p runs zones in lane
// groups of 32, then of 8, with a per-zone tail, so the battery covers
// every length 1-37 and the regimes that take each path.
TEST(SrmhdBatchKernels, BothVariantsMatchPerZoneFunctionsBitwise) {
  using P = solver::SrmhdPhysics;
  constexpr int nv = P::kNumPrim;
  const auto components = prim_components;
  int expanding = 0;  // c2p inputs that need the z_hi doubling loop
  for (std::size_t n = 1; n <= 37; ++n) {
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    const auto in = c2p_inputs(n, 300u + static_cast<unsigned>(n));
    for (const Cons& u : in) expanding += needs_bracket_expansion(u) ? 1 : 0;
    expect_c2p_matches_reference(in, {});
    // Starved solves: lanes that exhaust max_iterations sit next to lanes
    // that converge, so frozen and running lanes mix.
    for (int iters = 1; iters <= 3; ++iters) {
      srmhd::Con2PrimOptions starved;
      starved.max_iterations = iters;
      expect_c2p_matches_reference(in, starved);
    }

    // Face rows: extreme states, some of which need the face limiter
    // (superluminal |v|, negative density or pressure).
    std::mt19937 rng(400u + static_cast<unsigned>(n));
    std::vector<Prim> wl(n);
    std::vector<Prim> wr(n);
    std::vector<Prim> ws(n);  // the physical draws behind wl
    std::array<std::vector<double>, nv> wl_soa;
    std::array<std::vector<double>, nv> ws_soa;
    std::array<std::vector<double>, nv> wr_soa;
    for (int v = 0; v < nv; ++v) {
      wl_soa[v].resize(n);
      wr_soa[v].resize(n);
      ws_soa[v].resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (Prim* w : {&wl[i], &wr[i]}) {
        *w = extreme_prim(rng);
        if (w == &wl[i]) ws[i] = *w;
        switch (std::uniform_int_distribution<int>(0, 7)(rng)) {
          case 0:  // superluminal
            w->vx *= 1.5;
            w->vy *= 1.5;
            w->vz *= 1.5;
            break;
          case 1: w->rho = -w->rho; break;
          case 2: w->p = -w->p; break;
          default: break;
        }
      }
      const auto cl = components(wl[i]);
      const auto cr = components(wr[i]);
      const auto cs = components(ws[i]);
      for (int v = 0; v < nv; ++v) {
        wl_soa[v][i] = cl[v];
        wr_soa[v][i] = cr[v];
        ws_soa[v][i] = cs[v];
      }
    }
    const double* wlp[nv];
    const double* wrp[nv];
    const double* wsp[nv];
    for (int v = 0; v < nv; ++v) {
      wlp[v] = wl_soa[v].data();
      wrp[v] = wr_soa[v].data();
      wsp[v] = ws_soa[v].data();
    }

    for (const bool simd : {false, true}) {
      SCOPED_TRACE(simd ? "simd" : "scalar");
      // Max signal speed, every dimensionality (physical states only: the
      // CFL scan runs on c2p output).
      std::vector<double> speed(n);
      for (int ndim = 1; ndim <= 3; ++ndim) {
        P::Context ctx;
        P::max_speed_n(simd, n, wsp, speed.data(), ctx, ndim);
        int diffs = 0;
        for (std::size_t i = 0; i < n; ++i) {
          diffs += !same_bits(speed[i], P::max_speed(ws[i], ctx, ndim));
        }
        EXPECT_EQ(diffs, 0) << "max_speed_n ndim=" << ndim;
      }

      // Limited face states + HLL flux, GLM on and off, every axis.
      std::array<std::vector<double>, nv> f_soa;
      double* fptr[nv];
      for (int v = 0; v < nv; ++v) {
        f_soa[v].assign(n, 0.0);
        fptr[v] = f_soa[v].data();
      }
      for (const bool glm : {true, false}) {
        P::Context ctx;
        ctx.glm.enabled = glm;
        for (int axis = 0; axis < 3; ++axis) {
          ASSERT_TRUE(
              P::interface_flux_n(simd, n, axis, wlp, wrp, fptr, ctx));
          int diffs = 0;
          double q[nv];
          for (std::size_t i = 0; i < n; ++i) {
            Prim a = wl[i];
            Prim b = wr[i];
            P::limit_face_state(a, ctx);
            P::limit_face_state(b, ctx);
            P::cons_components(P::interface_flux(a, b, axis, ctx), q);
            for (int v = 0; v < nv; ++v) {
              diffs += !same_bits(f_soa[v][i], q[v]);
            }
          }
          EXPECT_EQ(diffs, 0)
              << "interface_flux_n glm=" << glm << " axis=" << axis;
        }
      }

      // RK stage combination keeps the left-associated expression shape.
      const double a = 0.75;
      const double b = 0.25;
      const double c = 0.25 * 1.3e-3;
      std::vector<double> y = wr_soa[srmhd::kP];
      solver::rk_combine_n(simd, n, a, wl_soa[srmhd::kP].data(), b, y.data(),
                           c, wl_soa[srmhd::kBy].data());
      int diffs = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double ref =
            (a * wl_soa[srmhd::kP][i] + b * wr_soa[srmhd::kP][i]) +
            c * wl_soa[srmhd::kBy][i];
        diffs += !same_bits(y[i], ref);
      }
      EXPECT_EQ(diffs, 0) << "rk_combine_n";
    }
  }
  EXPECT_GT(expanding, 0) << "no input exercised the z_hi expansion";
}

// --- warm start ------------------------------------------------------------

/// The guess slabs of the warm-start battery. The SRMHD solve's guess is
/// z = rho h W^2 of the old prims; every kind before kNegRho makes z NaN,
/// +-Inf, <= 0 or lands outside the bracket, and must reproduce the cold
/// start.
enum GuessKind : int {
  kZero,
  kNegZero,
  kNaN,
  kPosInf,
  kNegInf,
  kLightSpeed,
  kSuperluminal,
  kBelowBracket,
  kAboveBracket,
  kNegRho,
  kNegP,
  kRoot,
  kNearRoot,
  kNumGuessKinds,
};

bool srmhd_cold_guess(int kind) { return kind < kNegRho; }

/// A guess of `kind` for a zone whose cold solve gave `root`.
Prim make_guess(int kind, const Prim& root) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Prim g = root;
  switch (kind) {
    case kZero:
      g = {};
      break;
    case kNegZero:
      g = make_prim(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0);
      g.psi = -0.0;
      break;
    case kNaN:
      g = make_prim(nan, nan, nan, nan, nan, nan, nan, nan);
      g.psi = nan;
      break;
    case kPosInf:
      g.p = inf;
      break;
    case kNegInf:
      g.p = -inf;
      break;
    case kLightSpeed:  // W = Inf
      g.vx = 1.0;
      g.vy = 0.0;
      g.vz = 0.0;
      break;
    case kSuperluminal:  // z < 0
      g.vx = 1.5;
      g.vy = 0.0;
      g.vz = 0.0;
      break;
    case kBelowBracket:
      g = make_prim(1e-300, 0.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.0);
      break;
    case kAboveBracket:
      g = make_prim(1e300, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0);
      break;
    case kNegRho:
      g.rho = -root.rho;
      break;
    case kNegP:
      g.p = -root.p;
      break;
    case kNearRoot:
      g.p = root.p * (1.0 + 1e-3);
      break;
    default:  // kRoot
      break;
  }
  return g;
}

bool same_prim_bits(const Prim& a, const Prim& b) {
  return std::memcmp(&a, &b, sizeof(Prim)) == 0;
}

class SrmhdWarmStart : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SrmhdWarmStart, EveryGuessSlabMatchesPerZoneBitwise) {
  const std::size_t n = GetParam();
  const auto in = c2p_inputs(n, 600u + static_cast<unsigned>(n));
  srmhd::Con2PrimOptions starved;
  starved.max_iterations = 2;
  long long warm_iters = 0;
  long long cold_iters = 0;
  // Every kind lands on every lane position as the shift walks.
  for (int shift = 0; shift < kNumGuessKinds; ++shift) {
    SCOPED_TRACE(::testing::Message() << "shift " << shift);
    std::vector<Prim> guess(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int kind = (static_cast<int>(i) + shift) % kNumGuessKinds;
      const srmhd::Con2PrimResult cold = srmhd::cons_to_prim(in[i], kEos);
      guess[i] = make_guess(kind, cold.prim);
      const srmhd::Con2PrimResult warm =
          srmhd::cons_to_prim(in[i], kEos, {}, guess[i]);
      if (srmhd_cold_guess(kind)) {
        // An inadmissible guess, a zero-filled slab included, is the
        // no-guess call bit for bit.
        EXPECT_TRUE(same_prim_bits(warm.prim, cold.prim)) << "zone " << i;
        EXPECT_EQ(warm.iterations, cold.iterations) << "zone " << i;
        EXPECT_EQ(warm.floored, cold.floored) << "zone " << i;
      }
      if (kind == kRoot && cold.converged) {
        warm_iters += warm.iterations;
        cold_iters += cold.iterations;
      }
    }
    expect_c2p_matches_reference(in, {}, guess);
    expect_c2p_matches_reference(in, starved, guess);
  }
  // Restarting at the root saves Newton work overall.
  EXPECT_LE(warm_iters, cold_iters);
}

INSTANTIATE_TEST_SUITE_P(TailLengths, SrmhdWarmStart,
                         ::testing::Range<std::size_t>(0, 73));

// --- analytic Newton slope -------------------------------------------------

// c2p_evaluate's df against a centred fourth-order finite difference of f
// over W up to 10, B^2 from 0 to 100 rho and S.B != 0, at z around the
// root, wherever the residual is physical across the stencil.
TEST(SrmhdCon2Prim, AnalyticSlopeMatchesFiniteDifference) {
  int checked = 0;
  for (const double W : {1.05, 1.2, 2.0, 5.0, 10.0}) {
    for (const double b2_over_rho : {0.0, 1e-2, 1.0, 10.0, 100.0}) {
      for (const double p : {1e-2, 1.0, 30.0}) {
        const double v = std::sqrt(1.0 - 1.0 / (W * W));
        const double b = std::sqrt(b2_over_rho);  // rho = 1
        // v and B oblique, so S.B != 0 whenever B != 0.
        const Prim w = make_prim(1.0, 0.6 * v, 0.8 * v, 0.0, p, 0.8 * b,
                                 0.0, 0.6 * b);
        const Cons u = srmhd::prim_to_cons(w, kEos);
        const auto in = srmhd::detail::c2p_input(u);
        if (b > 0.0) {
          EXPECT_NE(in.sb, 0.0);
        }
        const double root = srmhd::detail::c2p_guess(w, kEos);
        for (const double scale : {0.7, 0.95, 1.0, 1.05, 1.5, 3.0}) {
          const double z = scale * root;
          const double h = 1e-5 * z;
          const auto f = [&](double zz) {
            return srmhd::detail::c2p_evaluate(in, zz, kEos);
          };
          const auto r = f(z);
          bool physical = r.physical;
          for (const double dz : {-2.0 * h, -h, h, 2.0 * h}) {
            physical = physical && f(z + dz).physical;
          }
          if (!physical) continue;
          const double fd = (f(z - 2.0 * h).f - 8.0 * f(z - h).f +
                             8.0 * f(z + h).f - f(z + 2.0 * h).f) /
                            (12.0 * h);
          EXPECT_NEAR(r.df, fd, 1e-6 * std::abs(fd))
              << "W=" << W << " B^2/rho=" << b2_over_rho << " p=" << p
              << " z/z*=" << scale;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 300);
}

}  // namespace
