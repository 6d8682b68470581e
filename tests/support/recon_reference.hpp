#pragma once
// Test-only per-cell reconstruction reference: every method of
// recon::Method written the way the schemes read on paper, one cell at a
// time, with early returns and if/else where the scheme branches. It shares
// no code with src/recon/reconstruct.cpp or rshc/common/math.hpp (it keeps
// its own limiters), and it compiles under the tree-default flags of the
// test target that includes it. test_recon memcmps both library loop nests
// (recon::reconstruct_rows along rows, recon::reconstruct_lanes across
// pencils) against it, so a select in the branch-free library bodies that
// does not match the branch it replaced shows up as a bit difference.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "rshc/recon/reconstruct.hpp"

namespace rshc::testsupport::recon_ref {

struct Faces {
  double l;  ///< value at face i-1/2, from inside cell i
  double r;  ///< value at face i+1/2, from inside cell i
};

inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

inline double mc_slope(double dqm, double dqp) {
  return minmod(0.5 * (dqm + dqp), minmod(2.0 * dqm, 2.0 * dqp));
}

inline double van_leer_slope(double dqm, double dqp) {
  const double prod = dqm * dqp;
  if (prod <= 0.0) return 0.0;
  return 2.0 * prod / (dqm + dqp);
}

/// PLM at cell i of a unit-stride pencil (q points at cell i).
template <typename Limiter>
Faces plm(const double* q, Limiter limiter) {
  const double dqm = q[0] - q[-1];
  const double dqp = q[1] - q[0];
  const double slope = limiter(dqm, dqp);
  return {q[0] - 0.5 * slope, q[0] + 0.5 * slope};
}

/// Colella & Woodward (1984) PPM with the original monotonization.
inline Faces ppm(const double* q) {
  auto face = [&](int i) {
    return (7.0 / 12.0) * (q[i] + q[i + 1]) -
           (1.0 / 12.0) * (q[i - 1] + q[i + 2]);
  };
  double qm = face(-1);  // value at i-1/2
  double qp = face(0);   // value at i+1/2
  qm = std::clamp(qm, std::min(q[-1], q[0]), std::max(q[-1], q[0]));
  qp = std::clamp(qp, std::min(q[0], q[1]), std::max(q[0], q[1]));
  if ((qp - q[0]) * (q[0] - qm) <= 0.0) {
    // Cell is a local extremum: flatten.
    qm = q[0];
    qp = q[0];
  } else {
    const double dq = qp - qm;
    const double q6 = 6.0 * (q[0] - 0.5 * (qm + qp));
    if (dq * q6 > dq * dq) {
      qm = 3.0 * q[0] - 2.0 * qp;
    } else if (-dq * dq > dq * q6) {
      qp = 3.0 * q[0] - 2.0 * qm;
    }
  }
  return {qm, qp};
}

/// Jiang & Shu (1996) WENO5 value at the right face of the middle cell.
inline double weno5_face(double qm2, double qm1, double q0, double qp1,
                         double qp2) {
  constexpr double eps = 1e-6;
  const double f0 = (2.0 * qm2 - 7.0 * qm1 + 11.0 * q0) / 6.0;
  const double f1 = (-qm1 + 5.0 * q0 + 2.0 * qp1) / 6.0;
  const double f2 = (2.0 * q0 + 5.0 * qp1 - qp2) / 6.0;
  auto sq = [](double x) { return x * x; };
  const double b0 = (13.0 / 12.0) * sq(qm2 - 2.0 * qm1 + q0) +
                    0.25 * sq(qm2 - 4.0 * qm1 + 3.0 * q0);
  const double b1 =
      (13.0 / 12.0) * sq(qm1 - 2.0 * q0 + qp1) + 0.25 * sq(qm1 - qp1);
  const double b2 = (13.0 / 12.0) * sq(q0 - 2.0 * qp1 + qp2) +
                    0.25 * sq(3.0 * q0 - 4.0 * qp1 + qp2);
  const double a0 = 0.1 / sq(eps + b0);
  const double a1 = 0.6 / sq(eps + b1);
  const double a2 = 0.3 / sq(eps + b2);
  return (a0 * f0 + a1 * f1 + a2 * f2) / (a0 + a1 + a2);
}

inline Faces weno5(const double* q) {
  return {weno5_face(q[2], q[1], q[0], q[-1], q[-2]),
          weno5_face(q[-2], q[-1], q[0], q[1], q[2])};
}

/// Faces of cell i of a unit-stride pencil (q points at cell i, which must
/// sit at least stencil_radius(m) cells from either end).
inline Faces cell(recon::Method m, const double* q) {
  switch (m) {
    case recon::Method::kPCM: return {q[0], q[0]};
    case recon::Method::kPLMMinmod: return plm(q, minmod);
    case recon::Method::kPLMMC: return plm(q, mc_slope);
    case recon::Method::kPLMVanLeer: return plm(q, van_leer_slope);
    case recon::Method::kPPM: return ppm(q);
    case recon::Method::kWENO5: return weno5(q);
  }
  return {q[0], q[0]};
}

/// One pencil, the library's contract: ql/qr written for cells
/// [r, n - r) with r = stencil_radius(m), left untouched elsewhere.
inline void pencil(recon::Method m, std::span<const double> q,
                   std::span<double> ql, std::span<double> qr) {
  const auto r = static_cast<std::size_t>(recon::stencil_radius(m));
  for (std::size_t i = r; i + r < q.size(); ++i) {
    const Faces f = cell(m, q.data() + i);
    ql[i] = f.l;
    qr[i] = f.r;
  }
}

}  // namespace rshc::testsupport::recon_ref
