#pragma once
// Per-interface solver cores shared between the struct entry points
// (src/riemann/riemann.cpp) and the batched face-kernel translation units
// (src/riemann/faces_*.cpp). Header-inline for the same reason as
// srhd/state.hpp: each TU compiles this code under its own optimization
// flags while -ffp-contract=off keeps every variant bitwise identical to
// the tree-default baseline (no FMA contraction on the x86-64 baseline).
//
// Everything here is an implementation detail of rshc::riemann; the public
// surface stays riemann.hpp (per-interface) and riemann/kernels.hpp
// (batched SoA rows).

#include <algorithm>
#include <cmath>

#include "rshc/eos/ideal_gas.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::riemann::detail {

/// Rescale a velocity vector to |v| <= vmax (< 1), preserving direction.
/// Selects, not a branch, so the batched face loops stay vectorizable.
template <typename P>
inline void cap_velocity(P& w, double vmax) {
  const double v2 = w.v_sq();
  const bool cap = v2 >= vmax * vmax;
  const double scale = vmax / std::sqrt(v2);
  w.vx = cap ? w.vx * scale : w.vx;
  w.vy = cap ? w.vy * scale : w.vy;
  w.vz = cap ? w.vz * scale : w.vz;
}

/// Sanitize a reconstructed face state before the Riemann solve: positivity
/// floors on rho and p, |v| capped strictly below 1. The single definition
/// both Physics::limit_face_state and the batched face kernels compile, so
/// the per-interface and batched paths limit with identical arithmetic.
template <typename P>
inline void limit_face(P& w, double rho_floor, double p_floor) {
  w.rho = std::max(w.rho, rho_floor);
  w.p = std::max(w.p, p_floor);
  cap_velocity(w, 1.0 - 1e-10);
}

/// One side of an SRHD interface: primitive state plus everything the
/// approximate solvers consume (conservatives, physical flux, acoustic
/// signal speeds).
struct SrhdSide {
  srhd::Prim w;
  srhd::Cons u;
  srhd::Cons f;
  srhd::SignalSpeeds s;
};

inline SrhdSide srhd_side(const srhd::Prim& w, int axis,
                          const eos::IdealGas& eos) {
  SrhdSide p;
  p.w = w;
  p.u = srhd::prim_to_cons(w, eos);
  p.f = srhd::flux(w, p.u, axis);
  p.s = srhd::signal_speeds(w, axis, eos);
  return p;
}

/// Component-wise `c ? a : b`.
inline srhd::Cons select(bool c, const srhd::Cons& a, const srhd::Cons& b) {
  return {c ? a.d : b.d, c ? a.sx : b.sx, c ? a.sy : b.sy, c ? a.sz : b.sz,
          c ? a.tau : b.tau};
}

// The SRHD solvers below are written branch-free: the upwind fluxes and the
// intermediate-state flux are all computed, then picked by select. The
// picked value is bit for bit what the early-return form gave (the
// discarded candidates never feed it), and the batched face loops stay
// vectorizable. The std::min/std::max chains fold left exactly like the
// initializer-list overloads (same comparisons, same operand order, same
// NaN behaviour).

inline srhd::Cons llf(const SrhdSide& l, const SrhdSide& r) {
  const double a = std::max(
      std::max(std::max(std::abs(l.s.lambda_minus), std::abs(l.s.lambda_plus)),
               std::abs(r.s.lambda_minus)),
      std::abs(r.s.lambda_plus));
  return 0.5 * (l.f + r.f) + (-0.5 * a) * (r.u - l.u);
}

inline srhd::Cons hll(const SrhdSide& l, const SrhdSide& r) {
  const double sl = std::min(std::min(0.0, l.s.lambda_minus), r.s.lambda_minus);
  const double sr = std::max(std::max(0.0, l.s.lambda_plus), r.s.lambda_plus);
  const double inv = 1.0 / (sr - sl);
  const srhd::Cons mid =
      inv * ((sr * l.f) + (-sl) * r.f + (sl * sr) * (r.u - l.u));
  return select(sl >= 0.0, l.f, select(sr <= 0.0, r.f, mid));
}

/// Mignone & Bodo (2005) HLLC. Works with the *total* energy E = tau + D
/// (whose flux is the normal momentum) and converts back at the end.
inline srhd::Cons hllc(const SrhdSide& l, const SrhdSide& r, int axis) {
  const double sl = std::min(l.s.lambda_minus, r.s.lambda_minus);
  const double sr = std::max(l.s.lambda_plus, r.s.lambda_plus);

  // HLL-averaged state and flux of (E, m_n).
  const double inv = 1.0 / (sr - sl);
  auto hll_avg = [&](double ul, double ur, double fl, double fr) {
    return (sr * ur - sl * ul + fl - fr) * inv;
  };
  auto hll_flux = [&](double ul, double ur, double fl, double fr) {
    return (sr * fl - sl * fr + sl * sr * (ur - ul)) * inv;
  };

  const double El = l.u.tau + l.u.d;
  const double Er = r.u.tau + r.u.d;
  const double fEl = l.f.tau + l.f.d;  // = m_n,L
  const double fEr = r.f.tau + r.f.d;
  const double ml = l.u.s(axis);
  const double mr = r.u.s(axis);
  const double fml = l.f.s(axis);
  const double fmr = r.f.s(axis);

  const double E_h = hll_avg(El, Er, fEl, fEr);
  const double m_h = hll_avg(ml, mr, fml, fmr);
  const double fE_h = hll_flux(El, Er, fEl, fEr);
  const double fm_h = hll_flux(ml, mr, fml, fmr);

  // Contact speed: the physical root of
  //   fE_h lam^2 - (E_h + fm_h) lam + m_h = 0.
  const double a = fE_h;
  const double b = -(E_h + fm_h);
  const double c = m_h;
  const bool quadratic = std::abs(a) > 1e-12 * std::max(std::abs(b), 1.0);
  const double disc = std::max(0.0, b * b - 4.0 * a * c);
  // Minus root (Mignone & Bodo 2005, eq. 18) is the causal one; a vanishing
  // leading coefficient degenerates to the linear root.
  const double lam_quadratic = (-b - std::sqrt(disc)) / (2.0 * a);
  const double lam_linear = -c / b;
  const double lam_star =
      std::clamp(quadratic ? lam_quadratic : lam_linear, sl, sr);

  const double p_star = fm_h - fE_h * lam_star;

  // Star flux on the upwind side of the contact. The side's state is
  // selected first, so one evaluation does exactly the arithmetic the
  // chosen side alone would.
  const bool left = lam_star >= 0.0;
  const double sk = left ? sl : sr;
  const double vk = left ? l.w.v(axis) : r.w.v(axis);
  const double pk = left ? l.w.p : r.w.p;
  const srhd::Cons uk = select(left, l.u, r.u);
  const srhd::Cons fk = select(left, l.f, r.f);
  const double Ek = uk.tau + uk.d;
  const double fac = (sk - vk) / (sk - lam_star);
  srhd::Cons star;
  star.d = uk.d * fac;
  // Normal momentum gains the pressure jump; transverse just advect.
  const double mk = uk.s(axis);
  const double m_star = (mk * (sk - vk) + p_star - pk) / (sk - lam_star);
  star.sx = uk.sx * fac;
  star.sy = uk.sy * fac;
  star.sz = uk.sz * fac;
  switch (axis) {
    case 0:
      star.sx = m_star;
      break;
    case 1:
      star.sy = m_star;
      break;
    default:
      star.sz = m_star;
      break;
  }
  const double E_star =
      (Ek * (sk - vk) + p_star * lam_star - pk * vk) / (sk - lam_star);
  star.tau = E_star - star.d;
  const srhd::Cons f_star = fk + sk * (star - uk);
  return select(sl >= 0.0, l.f, select(sr <= 0.0, r.f, f_star));
}

/// Component-wise `c ? a : b`.
[[gnu::always_inline]] inline srmhd::Cons select(bool c, const srmhd::Cons& a,
                                                 const srmhd::Cons& b) {
  return {c ? a.d : b.d,     c ? a.sx : b.sx, c ? a.sy : b.sy,
          c ? a.sz : b.sz,   c ? a.tau : b.tau, c ? a.bx : b.bx,
          c ? a.by : b.by,   c ? a.bz : b.bz, c ? a.psi : b.psi};
}

/// SRMHD HLL with the exact upwind GLM coupling for (B_n, psi) when kGlm,
/// a zero psi flux otherwise. Branch-free like the SRHD cores, and forced
/// inline with the state maps it calls (srmhd/state.hpp): the batched face
/// row (src/riemann/faces_impl.inc) instantiates it per axis and per GLM
/// setting, and only a fully inlined body lets GCC vectorize that loop.
template <bool kGlm>
[[gnu::always_inline]] inline srmhd::Cons srmhd_hll(const srmhd::Prim& wl,
                                                    const srmhd::Prim& wr,
                                                    int axis,
                                                    const eos::IdealGas& eos,
                                                    double ch) {
  const srmhd::Cons ul = srmhd::prim_to_cons(wl, eos);
  const srmhd::Cons ur = srmhd::prim_to_cons(wr, eos);
  const srmhd::Cons fl = srmhd::flux(wl, ul, axis, eos);
  const srmhd::Cons fr = srmhd::flux(wr, ur, axis, eos);
  const srmhd::SignalSpeeds ssl = srmhd::fast_speeds(wl, axis, eos);
  const srmhd::SignalSpeeds ssr = srmhd::fast_speeds(wr, axis, eos);

  const double sl =
      std::min(std::min(0.0, ssl.lambda_minus), ssr.lambda_minus);
  const double sr = std::max(std::max(0.0, ssl.lambda_plus), ssr.lambda_plus);
  const double inv = 1.0 / (sr - sl);
  const srmhd::Cons mid =
      inv * ((sr * fl) + (-sl) * fr + (sl * sr) * (ur - ul));
  srmhd::Cons f = select(sl >= 0.0, fl, select(sr <= 0.0, fr, mid));

  if constexpr (kGlm) {
    const auto g =
        srmhd::glm_interface_flux(wl.b(axis), wl.psi, wr.b(axis), wr.psi, ch);
    switch (axis) {
      case 0: f.bx = g.flux_bn; break;
      case 1: f.by = g.flux_bn; break;
      default: f.bz = g.flux_bn; break;
    }
    f.psi = g.flux_psi;
  } else {
    f.psi = 0.0;
  }
  return f;
}

/// The same solve with GLM chosen at run time (the per-interface entry
/// point, riemann::solve_srmhd_hll).
inline srmhd::Cons srmhd_hll(const srmhd::Prim& wl, const srmhd::Prim& wr,
                             int axis, const eos::IdealGas& eos,
                             const srmhd::GlmParams& glm) {
  return glm.enabled ? srmhd_hll<true>(wl, wr, axis, eos, glm.ch)
                     : srmhd_hll<false>(wl, wr, axis, eos, glm.ch);
}

}  // namespace rshc::riemann::detail
