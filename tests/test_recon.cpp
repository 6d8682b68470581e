// Reconstruction schemes: exactness, accuracy, and monotonicity properties.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "support/recon_reference.hpp"

namespace {

using namespace rshc;
using recon::Method;

const std::vector<Method> kAllMethods = {
    Method::kPCM,       Method::kPLMMinmod, Method::kPLMMC,
    Method::kPLMVanLeer, Method::kPPM,       Method::kWENO5};

struct Recon {
  std::vector<double> ql, qr;
  explicit Recon(Method m, const std::vector<double>& q)
      : ql(q.size()), qr(q.size()) {
    recon::reconstruct(m, q, ql, qr);
  }
};

class EveryMethod : public ::testing::TestWithParam<Method> {};

TEST_P(EveryMethod, ReproducesConstants) {
  const std::vector<double> q(16, 3.7);
  Recon r(GetParam(), q);
  const int rad = recon::stencil_radius(GetParam());
  for (std::size_t i = rad; i + rad < q.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.ql[i], 3.7);
    EXPECT_DOUBLE_EQ(r.qr[i], 3.7);
  }
}

TEST_P(EveryMethod, FaceValuesStayWithinNeighbourRange) {
  // Monotonicity-preservation property: on arbitrary data, TVD-limited
  // schemes must not create face values outside the local 3-cell envelope.
  // WENO5 is ENO, not TVD — it gets a separate boundedness test below.
  if (GetParam() == Method::kWENO5) GTEST_SKIP();
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  std::vector<double> q(64);
  for (auto& x : q) x = u(rng);
  Recon r(GetParam(), q);
  const int rad = recon::stencil_radius(GetParam());
  constexpr double tol = 1e-12;
  for (std::size_t i = rad; i + rad < q.size(); ++i) {
    const double lo =
        std::min({q[i - (rad > 0 ? 1 : 0)], q[i], q[i + (rad > 0 ? 1 : 0)]});
    const double hi =
        std::max({q[i - (rad > 0 ? 1 : 0)], q[i], q[i + (rad > 0 ? 1 : 0)]});
    EXPECT_GE(r.ql[i], lo - tol) << "cell " << i;
    EXPECT_LE(r.ql[i], hi + tol) << "cell " << i;
    EXPECT_GE(r.qr[i], lo - tol) << "cell " << i;
    EXPECT_LE(r.qr[i], hi + tol) << "cell " << i;
  }
}

TEST(Recon, Weno5StaysBoundedByStencilConvexity) {
  // WENO5 face values are convex combinations of three quadratic
  // interpolants; on data in [0, 10] they stay within a stencil-bounded
  // envelope even if not strictly TVD.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  std::vector<double> q(64);
  for (auto& x : q) x = u(rng);
  Recon r(Method::kWENO5, q);
  for (std::size_t i = 2; i + 2 < q.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.ql[i]));
    EXPECT_TRUE(std::isfinite(r.qr[i]));
    EXPECT_GT(r.qr[i], -25.0);
    EXPECT_LT(r.qr[i], 35.0);
  }
}

TEST_P(EveryMethod, NameRoundTrips) {
  const Method m = GetParam();
  EXPECT_EQ(recon::parse_method(recon::method_name(m)), m);
}

TEST_P(EveryMethod, GhostWidthIsStencilPlusOne) {
  EXPECT_EQ(recon::ghost_width(GetParam()),
            recon::stencil_radius(GetParam()) + 1);
}

INSTANTIATE_TEST_SUITE_P(Methods, EveryMethod,
                         ::testing::ValuesIn(kAllMethods));

TEST(Recon, PlmReproducesLinearProfilesExactly) {
  std::vector<double> q(16);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = 2.0 + 0.5 * static_cast<double>(i);
  }
  for (const Method m :
       {Method::kPLMMinmod, Method::kPLMMC, Method::kPLMVanLeer,
        Method::kPPM, Method::kWENO5}) {
    Recon r(m, q);
    const int rad = recon::stencil_radius(m);
    for (std::size_t i = rad; i + rad < q.size(); ++i) {
      EXPECT_NEAR(r.ql[i], q[i] - 0.25, 1e-11) << recon::method_name(m);
      EXPECT_NEAR(r.qr[i], q[i] + 0.25, 1e-11) << recon::method_name(m);
    }
  }
}

TEST(Recon, PcmIsFirstOrderFlat) {
  std::vector<double> q{1.0, 2.0, 4.0, 8.0};
  Recon r(Method::kPCM, q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.ql[i], q[i]);
    EXPECT_DOUBLE_EQ(r.qr[i], q[i]);
  }
}

TEST(Recon, PpmFlattensLocalExtrema) {
  std::vector<double> q{0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0};
  Recon r(Method::kPPM, q);
  EXPECT_DOUBLE_EQ(r.ql[2], 1.0);  // extremum cell is flattened
  EXPECT_DOUBLE_EQ(r.qr[2], 1.0);
}

/// Face-interpolation accuracy on a smooth profile: measure the error of
/// the right-face value against the analytic point value and check the
/// convergence rate between two resolutions.
double face_error(Method m, int n) {
  // Cell averages of sin(2 pi x) on [0, 1]: (cos(a) - cos(b)) / (b - a)
  // with the 2 pi folded in.
  std::vector<double> q(static_cast<std::size_t>(n));
  const double h = 1.0 / n;
  constexpr double k = 2.0 * std::numbers::pi;
  for (int i = 0; i < n; ++i) {
    const double a = i * h;
    const double b = (i + 1) * h;
    q[static_cast<std::size_t>(i)] =
        (std::cos(k * a) - std::cos(k * b)) / (k * h);
  }
  Recon r(m, q);
  const int rad = recon::stencil_radius(m);
  double worst = 0.0;
  for (int i = rad; i + rad < n; ++i) {
    const double exact = std::sin(k * (i + 1) * h);
    worst = std::max(worst,
                     std::abs(r.qr[static_cast<std::size_t>(i)] - exact));
  }
  return worst;
}

TEST(Recon, Weno5FaceAccuracyIsHighOrder) {
  const double e1 = face_error(Method::kWENO5, 32);
  const double e2 = face_error(Method::kWENO5, 64);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 4.0) << "e1=" << e1 << " e2=" << e2;
}

TEST(Recon, PpmFaceAccuracyBeatsPlm) {
  const double eppm = face_error(Method::kPPM, 64);
  const double eplm = face_error(Method::kPLMMC, 64);
  EXPECT_LT(eppm, eplm);
}

TEST(Recon, AccuracyOrderingOnSmoothData) {
  const double epcm = face_error(Method::kPCM, 64);
  const double eplm = face_error(Method::kPLMMC, 64);
  const double eweno = face_error(Method::kWENO5, 64);
  EXPECT_LT(eplm, epcm);
  EXPECT_LT(eweno, eplm);
}

TEST(Recon, RejectsMismatchedOutputSizes) {
  std::vector<double> q(8), ql(7), qr(8);
  EXPECT_THROW(recon::reconstruct(Method::kPCM, q, ql, qr), Error);
}

TEST(Recon, ParseRejectsUnknownName) {
  EXPECT_THROW((void)recon::parse_method("upwind-magic"), Error);
  EXPECT_EQ(recon::parse_method("plm"), Method::kPLMMC);  // alias
}

TEST(Recon, FormalOrdersAreMonotone) {
  EXPECT_EQ(recon::formal_order(Method::kPCM), 1);
  EXPECT_LT(recon::formal_order(Method::kPCM),
            recon::formal_order(Method::kPLMMC));
  EXPECT_LT(recon::formal_order(Method::kPPM),
            recon::formal_order(Method::kWENO5));
}

// --- Both library loop nests against the per-cell reference -------------
// tests/support/recon_reference.hpp is the schemes written with branches,
// compiled here under the tree-default flags; the library runs branch-free
// bodies under the simd recipe. Every output word is compared bit for bit
// (memcmp: -0.0 and Inf bits count), including the entries outside
// [r, n - r) that neither side may touch. The one allowance is the sign and
// payload of a NaN result: when an input NaN meets the default NaN of an
// invalid operation (Inf - Inf, 0 * Inf) in an add or multiply, x86 returns
// the first operand's NaN, and GCC may order the operands of a commutative
// operation differently in the two builds (WENO5 shows it). A NaN must
// still be a NaN on both sides.

namespace ref = rshc::testsupport::recon_ref;

/// Pencil inputs that stress the selects: finite values over the whole
/// exponent range with random signs, signed zeros, subnormals, infinities
/// and quiet NaNs, plus runs of equal values (flat limiters, PPM's extremum
/// test at exactly zero).
std::vector<double> stress_values(std::size_t count, unsigned seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             1.0,
                             -1.0};
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(specials) - 1);
  std::uniform_real_distribution<double> exponent(-300.0, 300.0);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::vector<double> v(count);
  double last = 1.0;
  for (auto& x : v) {
    const int k = kind(rng);
    if (k == 0) {
      x = specials[pick(rng)];
    } else if (k == 1) {
      x = last;  // a run of equal values
    } else if (k <= 5) {
      x = (rng() & 1U ? -1.0 : 1.0) * mantissa(rng) *
          std::pow(10.0, exponent(rng));
    } else {
      // Smooth-ish data with sign flips around zero.
      x = (rng() & 1U ? -1.0 : 1.0) * mantissa(rng);
    }
    last = x;
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
    if (!both_nan && std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// An odd finite bit pattern (about -4.1e-78) that marks output words
/// neither side may write.
double sentinel() {
  const unsigned long long bits = 0xafdead000000beefULL;
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

TEST_P(EveryMethod, AlongRowNestMatchesPerCellReferenceBitwise) {
  const Method m = GetParam();
  constexpr std::size_t kRows = 3;
  for (std::size_t n = 1; n <= 37; ++n) {
    for (unsigned seed = 0; seed < 8; ++seed) {
      const std::size_t qstride = n + 5;  // rows padded apart
      const std::size_t fstride = n + 3;
      const auto q = stress_values(kRows * qstride, seed * 97U + n);
      std::vector<double> ql(kRows * fstride, sentinel());
      std::vector<double> qr(kRows * fstride, sentinel());
      std::vector<double> el = ql;
      std::vector<double> er = qr;
      recon::reconstruct_rows(m, kRows, n, q.data(), qstride, ql.data(),
                              qr.data(), fstride);
      for (std::size_t r = 0; r < kRows; ++r) {
        ref::pencil(m, {q.data() + r * qstride, n},
                    {el.data() + r * fstride, n},
                    {er.data() + r * fstride, n});
      }
      ASSERT_TRUE(same_bits(ql, el) && same_bits(qr, er))
          << recon::method_name(m) << " n=" << n << " seed=" << seed;
      // The single-pencil entry point is the same nest.
      std::vector<double> sl(n, sentinel());
      std::vector<double> sr(n, sentinel());
      recon::reconstruct(m, {q.data(), n}, sl, sr);
      ASSERT_TRUE(same_bits(sl, {el.begin(), el.begin() + n}) &&
                  same_bits(sr, {er.begin(), er.begin() + n}))
          << recon::method_name(m) << " n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(EveryMethod, AcrossPencilNestMatchesPerCellReferenceBitwise) {
  const Method m = GetParam();
  for (std::size_t n = 1; n <= 37; ++n) {
    for (std::size_t lanes = 1; lanes <= 33; ++lanes) {
      const std::size_t qstride = lanes + 3;  // pencil stride, padded
      const std::size_t fstride = lanes + 1;
      const auto q =
          stress_values(n * qstride, static_cast<unsigned>(n * 131 + lanes));
      std::vector<double> ql(n * fstride, sentinel());
      std::vector<double> qr(n * fstride, sentinel());
      std::vector<double> el = ql;
      std::vector<double> er = qr;
      recon::reconstruct_lanes(m, lanes, n, q.data(), qstride, ql.data(),
                               qr.data(), fstride);
      std::vector<double> pq(n);
      std::vector<double> pl(n);
      std::vector<double> pr(n);
      for (std::size_t t = 0; t < lanes; ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          pq[i] = q[i * qstride + t];
          pl[i] = el[i * fstride + t];
          pr[i] = er[i * fstride + t];
        }
        ref::pencil(m, pq, pl, pr);
        for (std::size_t i = 0; i < n; ++i) {
          el[i * fstride + t] = pl[i];
          er[i * fstride + t] = pr[i];
        }
      }
      ASSERT_TRUE(same_bits(ql, el) && same_bits(qr, er))
          << recon::method_name(m) << " n=" << n << " lanes=" << lanes;
    }
  }
}

}  // namespace
