// Batched kernel oracle: both translation-unit variants (scalar, simd) of
// every batched SRHD kernel must reproduce the per-zone / per-interface
// reference bit for bit (memcmp, so -0.0 and NaN bits count) on identical
// inputs — the invariant the host pipeline, the device pipeline and the
// per-pencil solver oracle (support/pencil_reference.hpp) rely on. The
// c2p runs zones in lane groups of 32, then of 8, with a per-zone tail, so
// the oracle covers every length 1-37 and the regimes that take each path:
// W up to 100, pressure ratios 1e-8..1e8, evacuated, NaN, Inf and
// negative-tau zones, and zones that exhaust max_iterations. The
// warm-start battery feeds the c2p every kind of guess slab, admissible or
// not, over every length 0-72 (8-groups, 32-groups, 32+8, 2x32+8 and the
// tails).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "rshc/riemann/face_solvers.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srhd/kernels.hpp"

namespace {

using namespace rshc;
namespace k = srhd::kernels;

constexpr double kGamma = 5.0 / 3.0;

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  // An empty vector's data() may be null, which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

struct Batch {
  std::vector<double> rho, vx, vy, vz, p;
  std::vector<double> d, sx, sy, sz, tau;

  explicit Batch(std::size_t n, unsigned seed = 1234) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> urho(0.1, 10.0);
    std::uniform_real_distribution<double> uv(-0.55, 0.55);
    std::uniform_real_distribution<double> up(1e-3, 100.0);
    rho.resize(n); vx.resize(n); vy.resize(n); vz.resize(n); p.resize(n);
    d.resize(n); sx.resize(n); sy.resize(n); sz.resize(n); tau.resize(n);
    const eos::IdealGas eos(kGamma);
    for (std::size_t i = 0; i < n; ++i) {
      srhd::Prim w{urho(rng), uv(rng), uv(rng), uv(rng), up(rng)};
      rho[i] = w.rho; vx[i] = w.vx; vy[i] = w.vy; vz[i] = w.vz; p[i] = w.p;
      const srhd::Cons u = srhd::prim_to_cons(w, eos);
      d[i] = u.d; sx[i] = u.sx; sy[i] = u.sy; sz[i] = u.sz; tau[i] = u.tau;
    }
  }
};

/// A seeded primitive state across the extreme regimes: rest density
/// 1e-4..1e4, p / rho from 1e-8 to 1e8, Lorentz factor up to 100 in a
/// random direction.
srhd::Prim extreme_prim(std::mt19937& rng) {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double rho = std::pow(10.0, -4.0 + 8.0 * u01(rng));
  const double p = rho * std::pow(10.0, -8.0 + 16.0 * u01(rng));
  const double W = std::pow(100.0, u01(rng));
  const double v = std::sqrt(1.0 - 1.0 / (W * W));
  const double cth = 2.0 * u01(rng) - 1.0;
  const double sth = std::sqrt(1.0 - cth * cth);
  const double phi = 2.0 * M_PI * u01(rng);
  return {rho, v * sth * std::cos(phi), v * sth * std::sin(phi), v * cth, p};
}

/// Conservative states for the c2p oracle: mostly physical extreme states,
/// plus every kind of zone the atmosphere policy or the bisection fallback
/// has to handle.
std::vector<srhd::Cons> c2p_inputs(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const eos::IdealGas eos(kGamma);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<srhd::Cons> out(n);
  for (auto& u : out) {
    u = srhd::prim_to_cons(extreme_prim(rng), eos);
    switch (std::uniform_int_distribution<int>(0, 11)(rng)) {
      case 0:  // evacuated
        u.d = 1e-20;
        u.tau = 1e-20;
        break;
      case 1:  // NaN momentum
        u.sx = nan;
        break;
      case 2:  // Inf energy
        u.tau = inf;
        break;
      case 3:  // negative tau
        u.tau = -0.5 * std::abs(u.tau);
        break;
      case 4: {  // |S| beyond E
        const double f = 1.0 + u01(rng);
        u.sx *= f;
        u.sy *= f;
        u.sz *= f;
        break;
      }
      case 5:  // off the prim_to_cons manifold
        u.tau *= 1.0 + 1e-3 * u01(rng);
        break;
      case 6:  // physical, but below the density floor
        u = 1e-16 * u;
        break;
      case 7:  // below the floor and at rest: the first guess is the root
        u = {1e-15, 0.0, 0.0, 0.0, 1.0};
        break;
      default:
        break;
    }
  }
  return out;
}

/// Run one c2p variant and the per-zone reference on `in` and require the
/// same bits in every prim, the same iteration total and failure count.
/// `guess` (zero-filled when empty) fills the kernels' prim arrays and is
/// the per-zone call's guess.
void expect_c2p_matches_reference(const std::vector<srhd::Cons>& in,
                                  const srhd::Con2PrimOptions& opt,
                                  std::vector<srhd::Prim> guess = {}) {
  const std::size_t n = in.size();
  const eos::IdealGas eos(kGamma);
  guess.resize(n);
  std::vector<double> d(n), sx(n), sy(n), sz(n), tau(n);
  std::vector<double> ref_rho(n), ref_vx(n), ref_vy(n), ref_vz(n), ref_p(n);
  long long ref_iters = 0;
  long long ref_failures = 0;
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = in[i].d;
    sx[i] = in[i].sx;
    sy[i] = in[i].sy;
    sz[i] = in[i].sz;
    tau[i] = in[i].tau;
    const srhd::Con2PrimResult r =
        srhd::cons_to_prim(in[i], eos, opt, guess[i]);
    ref_rho[i] = r.prim.rho;
    ref_vx[i] = r.prim.vx;
    ref_vy[i] = r.prim.vy;
    ref_vz[i] = r.prim.vz;
    ref_p[i] = r.prim.p;
    ref_iters += r.iterations;
    ref_failures += r.floored ? 1 : 0;
  }
  for (const auto run :
       {&k::scalar::cons_to_prim_n, &k::simd::cons_to_prim_n}) {
    SCOPED_TRACE(run == &k::simd::cons_to_prim_n ? "simd" : "scalar");
    std::vector<double> rho(n), vx(n), vy(n), vz(n), p(n);
    for (std::size_t i = 0; i < n; ++i) {
      rho[i] = guess[i].rho;
      vx[i] = guess[i].vx;
      vy[i] = guess[i].vy;
      vz[i] = guess[i].vz;
      p[i] = guess[i].p;
    }
    const k::BatchStats s =
        run(n, d.data(), sx.data(), sy.data(), sz.data(), tau.data(),
            rho.data(), vx.data(), vy.data(), vz.data(), p.data(), kGamma, opt);
    EXPECT_TRUE(same_bits(rho, ref_rho));
    EXPECT_TRUE(same_bits(vx, ref_vx));
    EXPECT_TRUE(same_bits(vy, ref_vy));
    EXPECT_TRUE(same_bits(vz, ref_vz));
    EXPECT_TRUE(same_bits(p, ref_p));
    EXPECT_EQ(s.total_iterations, ref_iters);
    EXPECT_EQ(s.failures, ref_failures);
  }
}

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, PrimToConsMatchesAcrossVariants) {
  const std::size_t n = GetParam();
  Batch b(n);  // its d..tau come from the struct prim_to_cons
  for (const auto run :
       {&k::scalar::prim_to_cons_n, &k::simd::prim_to_cons_n}) {
    std::vector<double> d(n), sx(n), sy(n), sz(n), tau(n);
    run(n, b.rho.data(), b.vx.data(), b.vy.data(), b.vz.data(), b.p.data(),
        d.data(), sx.data(), sy.data(), sz.data(), tau.data(), kGamma);
    EXPECT_TRUE(same_bits(d, b.d));
    EXPECT_TRUE(same_bits(sx, b.sx));
    EXPECT_TRUE(same_bits(sy, b.sy));
    EXPECT_TRUE(same_bits(sz, b.sz));
    EXPECT_TRUE(same_bits(tau, b.tau));
  }
}

TEST_P(KernelEquivalence, ConsToPrimMatchesAcrossVariants) {
  const std::size_t n = GetParam();
  Batch b(n);
  std::vector<srhd::Cons> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = {b.d[i], b.sx[i], b.sy[i], b.sz[i], b.tau[i]};
  }
  expect_c2p_matches_reference(in, {});
  // Roundtrip accuracy vs the original batch.
  std::vector<double> r(n), vx(n), vy(n), vz(n), p(n);
  const auto s = k::simd::cons_to_prim_n(
      n, b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(), b.tau.data(),
      r.data(), vx.data(), vy.data(), vz.data(), p.data(), kGamma, {});
  EXPECT_EQ(s.failures, 0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r[i], b.rho[i], 1e-7 * b.rho[i]);
    EXPECT_NEAR(p[i], b.p[i], 1e-7 * b.p[i]);
  }
}

TEST_P(KernelEquivalence, MaxSpeedMatchesStructApi) {
  const std::size_t n = GetParam();
  Batch b(n);
  const eos::IdealGas eos(kGamma);
  for (int ndim = 1; ndim <= 3; ++ndim) {
    std::vector<double> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      const srhd::Prim w{b.rho[i], b.vx[i], b.vy[i], b.vz[i], b.p[i]};
      ref[i] = srhd::max_signal_speed(w, eos, ndim);
      EXPECT_LT(ref[i], 1.0);
    }
    for (const auto run : {&k::scalar::max_speed_n, &k::simd::max_speed_n}) {
      std::vector<double> sp(n);
      run(n, b.rho.data(), b.vx.data(), b.vy.data(), b.vz.data(), b.p.data(),
          sp.data(), kGamma, ndim);
      EXPECT_TRUE(same_bits(sp, ref)) << "ndim " << ndim;
    }
  }
}

TEST_P(KernelEquivalence, FluxMatchesStructApiAllAxes) {
  const std::size_t n = GetParam();
  Batch b(n);
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<double> rd(n), rsx(n), rsy(n), rsz(n), rtau(n);
    for (std::size_t i = 0; i < n; ++i) {
      const srhd::Prim w{b.rho[i], b.vx[i], b.vy[i], b.vz[i], b.p[i]};
      const srhd::Cons u{b.d[i], b.sx[i], b.sy[i], b.sz[i], b.tau[i]};
      const srhd::Cons f = srhd::flux(w, u, axis);
      rd[i] = f.d;
      rsx[i] = f.sx;
      rsy[i] = f.sy;
      rsz[i] = f.sz;
      rtau[i] = f.tau;
    }
    for (const auto run : {&k::scalar::flux_n, &k::simd::flux_n}) {
      std::vector<double> fd(n), fsx(n), fsy(n), fsz(n), ftau(n);
      run(n, axis, b.rho.data(), b.vx.data(), b.vy.data(), b.vz.data(),
          b.p.data(), b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(),
          b.tau.data(), fd.data(), fsx.data(), fsy.data(), fsz.data(),
          ftau.data());
      EXPECT_TRUE(same_bits(fd, rd)) << "axis " << axis;
      EXPECT_TRUE(same_bits(fsx, rsx)) << "axis " << axis;
      EXPECT_TRUE(same_bits(fsy, rsy)) << "axis " << axis;
      EXPECT_TRUE(same_bits(fsz, rsz)) << "axis " << axis;
      EXPECT_TRUE(same_bits(ftau, rtau)) << "axis " << axis;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, KernelEquivalence,
                         ::testing::Values(1u, 3u, 64u, 1000u));

// --- extreme-regime oracle over every tail length ------------------------

class BatchOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchOracle, ConsToPrimBitwiseAgainstPerZone) {
  const std::size_t n = GetParam();
  const auto in = c2p_inputs(n, 100u + static_cast<unsigned>(n));
  expect_c2p_matches_reference(in, {});
  // Starved and unreachable tolerances: many lanes exhaust max_iterations
  // next to lanes that converge, so frozen and running lanes mix.
  srhd::Con2PrimOptions starved;
  starved.max_iterations = 2;
  expect_c2p_matches_reference(in, starved);
  srhd::Con2PrimOptions exact;
  exact.tolerance = 0.0;
  exact.max_iterations = 7;
  expect_c2p_matches_reference(in, exact);
}

TEST_P(BatchOracle, FacesBitwiseAgainstSolveSrhd) {
  const std::size_t n = GetParam();
  std::mt19937 rng(200u + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const eos::IdealGas eos(kGamma);
  constexpr double kRhoFloor = 1e-14;
  constexpr double kPFloor = 1e-16;
  // Left/right face rows in PrimVar order; some states need the limiter
  // (superluminal |v|, negative density or pressure).
  std::vector<std::vector<double>> wl(srhd::kNumVars, std::vector<double>(n));
  std::vector<std::vector<double>> wr(srhd::kNumVars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (auto* row : {&wl, &wr}) {
      srhd::Prim w = extreme_prim(rng);
      switch (std::uniform_int_distribution<int>(0, 7)(rng)) {
        case 0:  // superluminal
          w.vx *= 1.5;
          w.vy *= 1.5;
          w.vz *= 1.5;
          break;
        case 1:
          w.rho = -w.rho;
          break;
        case 2:
          w.p = -w.p;
          break;
        default:
          break;
      }
      (*row)[srhd::kRho][i] = w.rho;
      (*row)[srhd::kVx][i] = w.vx;
      (*row)[srhd::kVy][i] = w.vy;
      (*row)[srhd::kVz][i] = w.vz;
      (*row)[srhd::kP][i] = w.p;
    }
  }
  std::vector<const double*> lptr(srhd::kNumVars), rptr(srhd::kNumVars);
  for (int v = 0; v < srhd::kNumVars; ++v) {
    lptr[v] = wl[v].data();
    rptr[v] = wr[v].data();
  }
  for (const riemann::Solver solver :
       {riemann::Solver::kLLF, riemann::Solver::kHLL, riemann::Solver::kHLLC}) {
    for (int axis = 0; axis < 3; ++axis) {
      SCOPED_TRACE(::testing::Message() << riemann::solver_name(solver)
                                        << " axis " << axis);
      std::vector<std::vector<double>> ref(srhd::kNumVars,
                                           std::vector<double>(n));
      for (std::size_t i = 0; i < n; ++i) {
        srhd::Prim a{wl[0][i], wl[1][i], wl[2][i], wl[3][i], wl[4][i]};
        srhd::Prim b{wr[0][i], wr[1][i], wr[2][i], wr[3][i], wr[4][i]};
        riemann::detail::limit_face(a, kRhoFloor, kPFloor);
        riemann::detail::limit_face(b, kRhoFloor, kPFloor);
        const srhd::Cons f = riemann::solve_srhd(solver, a, b, axis, eos);
        ref[srhd::kD][i] = f.d;
        ref[srhd::kSx][i] = f.sx;
        ref[srhd::kSy][i] = f.sy;
        ref[srhd::kSz][i] = f.sz;
        ref[srhd::kTau][i] = f.tau;
      }
      for (const auto run : {&riemann::kernels::scalar::srhd_faces_n,
                             &riemann::kernels::simd::srhd_faces_n}) {
        std::vector<std::vector<double>> out(srhd::kNumVars,
                                             std::vector<double>(n));
        std::vector<double*> optr(srhd::kNumVars);
        for (int v = 0; v < srhd::kNumVars; ++v) optr[v] = out[v].data();
        run(n, axis, solver, lptr.data(), rptr.data(), optr.data(), eos,
            kRhoFloor, kPFloor);
        for (int v = 0; v < srhd::kNumVars; ++v) {
          EXPECT_TRUE(same_bits(out[v], ref[v])) << "var " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, BatchOracle,
                         ::testing::Range<std::size_t>(1, 38));

// --- warm start -------------------------------------------------------------

/// The guess slabs of the warm-start battery. The SRHD solve takes only the
/// old pressure, so kNegRho, kLightSpeed and kSuperluminal are admissible;
/// the kinds before them are not, and must reproduce the cold start.
enum GuessKind : int {
  kZero,
  kNegZero,
  kNaN,
  kPosInf,
  kNegInf,
  kNegP,
  kBelowBracket,
  kAboveBracket,
  kNegRho,
  kLightSpeed,
  kSuperluminal,
  kRoot,
  kNearRoot,
  kNumGuessKinds,
};

bool srhd_cold_guess(int kind) { return kind < kNegRho; }

/// A guess of `kind` for a zone whose cold solve gave `root`.
srhd::Prim make_guess(int kind, const srhd::Prim& root) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  srhd::Prim g = root;
  switch (kind) {
    case kZero:
      g = {};
      break;
    case kNegZero:
      g = {-0.0, -0.0, -0.0, -0.0, -0.0};
      break;
    case kNaN:
      g = {nan, nan, nan, nan, nan};
      break;
    case kPosInf:
      g.p = inf;
      break;
    case kNegInf:
      g.p = -inf;
      break;
    case kNegP:
      g.p = -root.p;
      break;
    case kBelowBracket:  // under p_floor <= p_min
      g.p = 1e-300;
      break;
    case kAboveBracket:
      g.p = 1e300;
      break;
    case kNegRho:
      g.rho = -root.rho;
      break;
    case kLightSpeed:
      g.vx = 1.0;
      g.vy = 0.0;
      g.vz = 0.0;
      break;
    case kSuperluminal:
      g.vx = 1.5;
      g.vy = 0.0;
      g.vz = 0.0;
      break;
    case kNearRoot:
      g.p = root.p * (1.0 + 1e-3);
      break;
    default:  // kRoot
      break;
  }
  return g;
}

bool same_prim_bits(const srhd::Prim& a, const srhd::Prim& b) {
  return std::memcmp(&a, &b, sizeof(srhd::Prim)) == 0;
}

class WarmStart : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WarmStart, EveryGuessSlabMatchesPerZoneBitwise) {
  const std::size_t n = GetParam();
  const eos::IdealGas eos(kGamma);
  const auto in = c2p_inputs(n, 500u + static_cast<unsigned>(n));
  srhd::Con2PrimOptions starved;
  starved.max_iterations = 2;
  // Every kind lands on every lane position as the shift walks.
  for (int shift = 0; shift < kNumGuessKinds; ++shift) {
    SCOPED_TRACE(::testing::Message() << "shift " << shift);
    std::vector<srhd::Prim> guess(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int kind = (static_cast<int>(i) + shift) % kNumGuessKinds;
      const srhd::Con2PrimResult cold = srhd::cons_to_prim(in[i], eos);
      guess[i] = make_guess(kind, cold.prim);
      const srhd::Con2PrimResult warm =
          srhd::cons_to_prim(in[i], eos, {}, guess[i]);
      if (srhd_cold_guess(kind)) {
        // An inadmissible guess, a zero-filled slab included, is the
        // no-guess call bit for bit.
        EXPECT_TRUE(same_prim_bits(warm.prim, cold.prim)) << "zone " << i;
        EXPECT_EQ(warm.iterations, cold.iterations) << "zone " << i;
        EXPECT_EQ(warm.floored, cold.floored) << "zone " << i;
      }
      if (kind == kRoot) {
        // Restarting at the root converges at once, to the same bits.
        EXPECT_TRUE(same_prim_bits(warm.prim, cold.prim)) << "zone " << i;
        EXPECT_EQ(warm.iterations, cold.converged ? 1 : cold.iterations)
            << "zone " << i;
      }
    }
    expect_c2p_matches_reference(in, {}, guess);
    expect_c2p_matches_reference(in, starved, guess);
  }
}

INSTANTIATE_TEST_SUITE_P(TailLengths, WarmStart,
                         ::testing::Range<std::size_t>(0, 73));

TEST(Kernels, AxpbyBothVariants) {
  const std::size_t n = 100;
  std::vector<double> x(n), y1(n), y2(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y1[i] = y2[i] = 1.0;
  }
  k::scalar::axpby_n(n, 2.0, x.data(), 0.5, y1.data());
  k::simd::axpby_n(n, 2.0, x.data(), 0.5, y2.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y1[i], 2.0 * static_cast<double>(i) + 0.5);
  }
  EXPECT_TRUE(same_bits(y1, y2));
}

TEST(Kernels, ConsToPrimReportsFailures) {
  // One good zone, one evacuated zone: exactly one failure counted.
  std::vector<double> d{1.0, 1e-30}, sx{0.0, 0.0}, sy{0.0, 0.0},
      sz{0.0, 0.0}, tau{1.0, 1e-30};
  std::vector<double> rho(2), vx(2), vy(2), vz(2), p(2);
  const auto stats = k::scalar::cons_to_prim_n(
      2, d.data(), sx.data(), sy.data(), sz.data(), tau.data(), rho.data(),
      vx.data(), vy.data(), vz.data(), p.data(), kGamma, {});
  EXPECT_EQ(stats.failures, 1);
  EXPECT_GT(rho[0], 0.9);
  EXPECT_GT(rho[1], 0.0);  // atmosphere, still usable
}

TEST(Kernels, EmptyBatchIsSafe) {
  const auto stats = k::simd::cons_to_prim_n(
      0, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
      nullptr, nullptr, nullptr, kGamma, {});
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.total_iterations, 0);
  k::scalar::axpby_n(0, 1.0, nullptr, 1.0, nullptr);
}

}  // namespace
