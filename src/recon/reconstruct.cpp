#include "rshc/recon/reconstruct.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "rshc/common/error.hpp"
#include "rshc/common/math.hpp"

namespace rshc::recon {
namespace {

// Per-cell bodies: `q` points at cell i of a pencil whose neighbours sit
// `s` elements away, and the body writes the cell's two face values. Each
// method has exactly one body, free of branches, and both loop nests run
// it, so a face value does not depend on which nest produced it.

[[gnu::always_inline]] inline void pcm_cell(const double* q, std::ptrdiff_t,
                                            double& l, double& r) {
  l = q[0];
  r = q[0];
}

template <double (*Limiter)(double, double)>
[[gnu::always_inline]] inline void plm_cell(const double* q, std::ptrdiff_t s,
                                            double& l, double& r) {
  const double dqm = q[0] - q[-s];
  const double dqp = q[s] - q[0];
  const double slope = Limiter(dqm, dqp);
  l = q[0] - 0.5 * slope;
  r = q[0] + 0.5 * slope;
}

/// Colella & Woodward (1984) PPM with the original monotonization: clip
/// the 4th-order face interpolants into the neighbouring-cell range, flatten
/// a local extremum, and otherwise pull the face on the steep side back so
/// the parabola stays monotone. Selects instead of branches.
[[gnu::always_inline]] inline void ppm_cell(const double* q, std::ptrdiff_t s,
                                            double& l, double& r) {
  const double q0 = q[0];
  const double qm1 = q[-s];
  const double qp1 = q[s];
  double qm = (7.0 / 12.0) * (qm1 + q0) - (1.0 / 12.0) * (q[-2 * s] + qp1);
  double qp = (7.0 / 12.0) * (q0 + qp1) - (1.0 / 12.0) * (qm1 + q[2 * s]);
  qm = std::clamp(qm, std::min(qm1, q0), std::max(qm1, q0));
  qp = std::clamp(qp, std::min(q0, qp1), std::max(q0, qp1));
  const bool extremum = (qp - q0) * (q0 - qm) <= 0.0;
  const double dq = qp - qm;
  const double q6 = 6.0 * (q0 - 0.5 * (qm + qp));
  const bool steep_left = dq * q6 > dq * dq;
  const bool steep_right = !steep_left && -dq * dq > dq * q6;
  l = extremum ? q0 : (steep_left ? 3.0 * q0 - 2.0 * qp : qm);
  r = extremum ? q0 : (steep_right ? 3.0 * q0 - 2.0 * qm : qp);
}

/// Jiang & Shu (1996) WENO5 value at the right face of cell i, from the
/// 5-point stencil q[i-2..i+2].
[[gnu::always_inline]] inline double weno5_face(double qm2, double qm1,
                                                double q0, double qp1,
                                                double qp2) {
  constexpr double eps = 1e-6;
  // Candidate stencils (3rd order each).
  const double f0 = (2.0 * qm2 - 7.0 * qm1 + 11.0 * q0) / 6.0;
  const double f1 = (-qm1 + 5.0 * q0 + 2.0 * qp1) / 6.0;
  const double f2 = (2.0 * q0 + 5.0 * qp1 - qp2) / 6.0;
  // Smoothness indicators.
  const double b0 = (13.0 / 12.0) * rshc::sq(qm2 - 2.0 * qm1 + q0) +
                    0.25 * rshc::sq(qm2 - 4.0 * qm1 + 3.0 * q0);
  const double b1 = (13.0 / 12.0) * rshc::sq(qm1 - 2.0 * q0 + qp1) +
                    0.25 * rshc::sq(qm1 - qp1);
  const double b2 = (13.0 / 12.0) * rshc::sq(q0 - 2.0 * qp1 + qp2) +
                    0.25 * rshc::sq(3.0 * q0 - 4.0 * qp1 + qp2);
  // Nonlinear weights from ideal weights {1,6,3}/10.
  const double a0 = 0.1 / rshc::sq(eps + b0);
  const double a1 = 0.6 / rshc::sq(eps + b1);
  const double a2 = 0.3 / rshc::sq(eps + b2);
  return (a0 * f0 + a1 * f1 + a2 * f2) / (a0 + a1 + a2);
}

[[gnu::always_inline]] inline void weno5_cell(const double* q,
                                              std::ptrdiff_t s, double& l,
                                              double& r) {
  // Right face: upwind-biased from the left; left face: mirror the stencil.
  r = weno5_face(q[-2 * s], q[-s], q[0], q[s], q[2 * s]);
  l = weno5_face(q[2 * s], q[s], q[0], q[-s], q[-2 * s]);
}

/// A 2-D sweep of cells. The outer index o in [o0, o1) moves the cell
/// pointer by q_outer and the face pointers by f_outer; the inner index x
/// in [x0, x1) is unit-stride in all three, and neighbours along the
/// pencil sit s apart. Along a row (reconstruct_rows) o is the pencil, x
/// the cell and s = 1; across pencils (reconstruct_lanes) o is the cell, x
/// the pencil (one SIMD lane each) and s the pencil stride. Both nests are
/// the same compiled loop per method, which vectorizes over x.
struct Sweep {
  const double* q;
  double* ql;
  double* qr;
  std::size_t o0, o1, q_outer, f_outer, x0, x1;
  std::ptrdiff_t s;
};

// One inner loop per method, so tools/vec_guard.py sees each on its own
// line. The restrict parameters carry the no-alias contract into the loop:
// without them the stencil loads need more run-time alias checks than GCC
// will version for, and PPM and WENO5 stay scalar.

void pcm_line(const double* __restrict q, double* __restrict ql,
              double* __restrict qr, std::size_t x0, std::size_t x1,
              std::ptrdiff_t s) {
  // Two copies: GCC turns this loop into two memcpy calls, so it carries
  // no vec-guard marker.
  for (std::size_t x = x0; x < x1; ++x) {
    pcm_cell(q + x, s, ql[x], qr[x]);
  }
}

void plm_minmod_line(const double* __restrict q, double* __restrict ql,
                     double* __restrict qr, std::size_t x0, std::size_t x1,
                     std::ptrdiff_t s) {
  // vec-guard(1): PLM minmod
  for (std::size_t x = x0; x < x1; ++x) {
    plm_cell<rshc::minmod>(q + x, s, ql[x], qr[x]);
  }
}

void plm_mc_line(const double* __restrict q, double* __restrict ql,
                 double* __restrict qr, std::size_t x0, std::size_t x1,
                 std::ptrdiff_t s) {
  // vec-guard(1): PLM MC
  for (std::size_t x = x0; x < x1; ++x) {
    plm_cell<rshc::mc_slope>(q + x, s, ql[x], qr[x]);
  }
}

void plm_van_leer_line(const double* __restrict q, double* __restrict ql,
                       double* __restrict qr, std::size_t x0, std::size_t x1,
                       std::ptrdiff_t s) {
  // vec-guard(1): PLM van Leer
  for (std::size_t x = x0; x < x1; ++x) {
    plm_cell<rshc::van_leer_slope>(q + x, s, ql[x], qr[x]);
  }
}

void ppm_line(const double* __restrict q, double* __restrict ql,
              double* __restrict qr, std::size_t x0, std::size_t x1,
              std::ptrdiff_t s) {
  // vec-guard(1): PPM
  for (std::size_t x = x0; x < x1; ++x) {
    ppm_cell(q + x, s, ql[x], qr[x]);
  }
}

void weno5_line(const double* __restrict q, double* __restrict ql,
                double* __restrict qr, std::size_t x0, std::size_t x1,
                std::ptrdiff_t s) {
  // vec-guard(1): WENO5
  for (std::size_t x = x0; x < x1; ++x) {
    weno5_cell(q + x, s, ql[x], qr[x]);
  }
}

template <auto Line>
void sweep_lines(const Sweep& w) {
  for (std::size_t o = w.o0; o < w.o1; ++o) {
    Line(w.q + o * w.q_outer, w.ql + o * w.f_outer, w.qr + o * w.f_outer,
         w.x0, w.x1, w.s);
  }
}

void sweep(Method m, const Sweep& w) {
  switch (m) {
    case Method::kPCM: return sweep_lines<pcm_line>(w);
    case Method::kPLMMinmod: return sweep_lines<plm_minmod_line>(w);
    case Method::kPLMMC: return sweep_lines<plm_mc_line>(w);
    case Method::kPLMVanLeer: return sweep_lines<plm_van_leer_line>(w);
    case Method::kPPM: return sweep_lines<ppm_line>(w);
    case Method::kWENO5: return sweep_lines<weno5_line>(w);
  }
}

}  // namespace

int stencil_radius(Method m) {
  switch (m) {
    case Method::kPCM: return 0;
    case Method::kPLMMinmod:
    case Method::kPLMMC:
    case Method::kPLMVanLeer: return 1;
    case Method::kPPM:
    case Method::kWENO5: return 2;
  }
  return 2;
}

int ghost_width(Method m) { return stencil_radius(m) + 1; }

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kPCM: return "pcm";
    case Method::kPLMMinmod: return "plm-minmod";
    case Method::kPLMMC: return "plm-mc";
    case Method::kPLMVanLeer: return "plm-vanleer";
    case Method::kPPM: return "ppm";
    case Method::kWENO5: return "weno5";
  }
  return "unknown";
}

Method parse_method(std::string_view name) {
  if (name == "pcm") return Method::kPCM;
  if (name == "plm-minmod") return Method::kPLMMinmod;
  if (name == "plm-mc" || name == "plm") return Method::kPLMMC;
  if (name == "plm-vanleer") return Method::kPLMVanLeer;
  if (name == "ppm") return Method::kPPM;
  if (name == "weno5") return Method::kWENO5;
  RSHC_REQUIRE(false, std::string("unknown reconstruction method: ") +
                          std::string(name));
  return Method::kPCM;  // unreachable
}

int formal_order(Method m) {
  switch (m) {
    case Method::kPCM: return 1;
    case Method::kPLMMinmod:
    case Method::kPLMMC:
    case Method::kPLMVanLeer: return 2;
    case Method::kPPM: return 3;  // 3rd order at faces in this MOL setting
    case Method::kWENO5: return 5;
  }
  return 1;
}

void reconstruct(Method m, std::span<const double> q, std::span<double> ql,
                 std::span<double> qr) {
  RSHC_REQUIRE(ql.size() == q.size() && qr.size() == q.size(),
               "reconstruction output size mismatch");
  reconstruct_rows(m, 1, q.size(), q.data(), q.size(), ql.data(), qr.data(),
                   q.size());
}

void reconstruct_rows(Method m, std::size_t nrows, std::size_t n,
                      const double* q, std::size_t qstride, double* ql,
                      double* qr, std::size_t face_stride) {
  const auto r = static_cast<std::size_t>(stencil_radius(m));
  if (n <= 2 * r) return;
  sweep(m, {q, ql, qr, 0, nrows, qstride, face_stride, r, n - r, 1});
}

void reconstruct_lanes(Method m, std::size_t lanes, std::size_t n,
                       const double* q, std::size_t qstride, double* ql,
                       double* qr, std::size_t face_stride) {
  const auto r = static_cast<std::size_t>(stencil_radius(m));
  if (n <= 2 * r) return;
  sweep(m, {q, ql, qr, r, n - r, qstride, face_stride, 0, lanes,
            static_cast<std::ptrdiff_t>(qstride)});
}

}  // namespace rshc::recon
