#pragma once
// SRMHD conservative-to-primitive recovery: 1D Newton solve on
// z = rho h W^2 (the "1D_W" scheme of Mignone & McKinney 2007). With
//   vB(z)  = (S.B)/z
//   v^2(z) = [S^2 + (S.B)^2 (2z + B^2)/z^2] / (z + B^2)^2
//   W(z)   = (1 - v^2)^{-1/2},  rho = D/W
//   p(z)   = (Gamma-1)/Gamma * (z/W^2 - D/W)        (ideal gas)
// the energy equation becomes the scalar residual
//   f(z) = z - p(z) + B^2/2 (1 + v^2(z)) - (S.B)^2/(2 z^2) - (tau + D) = 0
// solved by safeguarded Newton (analytic slope df/dz, see c2p_evaluate)
// inside an expanding bracket. The first iterate is the caller's guess
// (the solver passes z of the prims this solve overwrites) when it lies
// strictly inside the bracket, and the bracket's midpoint otherwise. Same
// failure policy as SRHD: report + atmosphere, never throw.
//
// Header-inline so the scalar/SIMD kernel TUs compile it under their own
// flags (same rationale as state.hpp).

#include <algorithm>
#include <cmath>

#include "rshc/check/check.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::srmhd {

struct Con2PrimOptions {
  double tolerance = 1e-12;
  int max_iterations = 80;
  double rho_floor = 1e-14;
  double p_floor = 1e-16;
};

struct Con2PrimResult {
  Prim prim;
  int iterations = 0;
  bool converged = false;
  bool floored = false;
};

namespace detail {

// The solve is split into branch-free pieces — input, evaluate, start,
// expand, bracket, step, floored — that cons_to_prim below runs one zone
// at a time and the batched kernel (src/srmhd/kernels_impl.inc) runs 32 or
// 8 lanes at a time, as srhd::detail does for the SRHD solve. Sharing them
// is what keeps the two bitwise identical: each lane executes exactly the
// per-zone sequence of IEEE operations. "Branch-free" means every value is
// computed whatever the state and validity travels as a bool beside it, so
// a lane loop if-converts into vector selects.

/// Upper bound on the doublings of the bracket's upper end.
inline constexpr int kMaxExpansions = 200;

/// The conservative aggregates the residual reads, formed once per zone.
struct C2PInput {
  double d = 0.0;
  double tau = 0.0;
  double s2 = 0.0;  ///< S.S
  double b2 = 0.0;  ///< B.B
  double sb = 0.0;  ///< S.B
};

[[gnu::always_inline]] inline C2PInput c2p_input(const Cons& u) {
  return {u.d, u.tau, u.s_sq(), u.b_sq(), u.s_dot_b()};
}

/// Residual f(z) plus the rest density and pressure implied by z, and the
/// slope df/dz. The fields mean something only when `physical` (z > 0,
/// 0 <= v^2 < 1, rho > 0); a NaN v^2 or rho counts as physical, as it
/// always has. `df` comes last: the batched kernel's writeback
/// aggregate-initialises the first four fields.
struct C2PResidual {
  double f = 0.0;
  double rho = 0.0;
  double p = 0.0;
  bool physical = false;
  double df = 0.0;
};

[[gnu::always_inline]] inline C2PResidual c2p_evaluate(
    const C2PInput& u, double z, const eos::IdealGas& eos) {
  const double zB = z + u.b2;
  const double v2 =
      (u.s2 + u.sb * u.sb * (2.0 * z + u.b2) / (z * z)) / (zB * zB);
  const double W = 1.0 / std::sqrt(1.0 - v2);
  const double rho = u.d / W;
  const double p =
      (eos.gamma() - 1.0) / eos.gamma() * (z / (W * W) - u.d / W);
  const double E = u.tau + u.d;
  // Analytic slope: with C = (S.B)^2,
  //   dv^2/dz = -2 C / (z^3 (z + B^2)) - 2 v^2 / (z + B^2)
  //   dp/dz   = (Gamma-1)/Gamma * ((1 - v^2) - z dv^2/dz + D W/2 dv^2/dz)
  //   df/dz   = 1 - dp/dz + B^2/2 dv^2/dz + C / z^3
  const double c_z3 = u.sb * u.sb / (z * z * z);
  const double dv2 = -2.0 * c_z3 / zB - 2.0 * v2 / zB;
  const double dp = (eos.gamma() - 1.0) / eos.gamma() *
                    ((1.0 - v2) - z * dv2 + 0.5 * u.d * W * dv2);
  C2PResidual r;
  r.f = z - p + 0.5 * u.b2 * (1.0 + v2) - 0.5 * u.sb * u.sb / (z * z) - E;
  r.rho = rho;
  r.p = p;
  r.df = 1.0 - dp + 0.5 * u.b2 * dv2 + c_z3;
  r.physical =
      !(z <= 0.0) & !(v2 >= 1.0) & !(v2 < 0.0) & !(rho <= 0.0);
  return r;
}

/// f is increasing in z near the root and states with z too small are
/// unphysical (v^2(z) >= 1), so "unphysical" counts as "below the root":
/// plain bisection stays robust even when the physical window starts far
/// above D (highly relativistic, strongly magnetized states).
[[gnu::always_inline]] inline bool c2p_below_root(const C2PResidual& r) {
  return !r.physical | (r.f < 0.0);
}

/// Bracket [lo, hi] on z before expansion. The physical root satisfies
/// z* = rho h W^2 >= D. `valid` is false for evacuated or non-finite
/// conservatives, which go straight to atmosphere; `below` says hi is not
/// yet above the root.
struct C2PStart {
  double lo = 0.0;
  double hi = 0.0;
  bool valid = false;
  bool below = true;
};

[[gnu::always_inline]] inline C2PStart c2p_start(const C2PInput& u,
                                                 const eos::IdealGas& eos,
                                                 const Con2PrimOptions& opt) {
  C2PStart s;
  s.valid = (u.d > opt.rho_floor) & std::isfinite(u.d) &
            std::isfinite(u.tau) & std::isfinite(u.s2) & std::isfinite(u.b2);
  s.lo = std::max(u.d * (1.0 - 1e-12), 1e-30);
  s.hi = std::max(2.0 * s.lo, 2.0 * std::abs(u.tau + u.d) + u.b2 + 1.0);
  s.below = c2p_below_root(c2p_evaluate(u, s.hi, eos));
  return s;
}

/// The z = rho h W^2 of a primitive state: the first guess the solve takes
/// from the prims it overwrites. An unphysical `w` gives NaN, +-Inf or
/// z <= 0, which c2p_first rejects; so does the zero-filled state (z = 0).
[[gnu::always_inline]] inline double c2p_guess(const Prim& w,
                                               const eos::IdealGas& eos) {
  const double v2 = w.vx * w.vx + w.vy * w.vy + w.vz * w.vz;
  return (w.rho + eos.gamma() / (eos.gamma() - 1.0) * w.p) / (1.0 - v2);
}

/// The first Newton iterate in the expanded bracket [lo, hi]: `guess` when
/// it lies strictly inside (NaN and +-Inf fail the comparisons), else the
/// midpoint, the cold start.
[[gnu::always_inline]] inline double c2p_first(double guess, double lo,
                                               double hi) {
  return (guess > lo) & (guess < hi) ? guess : 0.5 * (lo + hi);
}

/// One doubling of the bracket's upper end (run while `below`, at most
/// kMaxExpansions times).
[[gnu::always_inline]] inline void c2p_expand(const C2PInput& u,
                                              const eos::IdealGas& eos,
                                              double& hi, bool& below) {
  hi *= 2.0;
  below = c2p_below_root(c2p_evaluate(u, hi, eos));
}

/// First half of one Newton update: test the residual `r` at z against
/// the tolerance and, when it fails, shrink the bisection bracket
/// [lo, hi] around the root. Returns true, leaving the bracket alone, when
/// r has converged.
[[gnu::always_inline]] inline bool c2p_bracket(const C2PInput& u,
                                               const C2PResidual& r,
                                               double z,
                                               const Con2PrimOptions& opt,
                                               double& lo, double& hi) {
  const double E = u.tau + u.d;
  const double scale = std::max(std::abs(E), std::abs(z));
  const bool converged =
      r.physical & (std::abs(r.f) <= opt.tolerance * scale);
  const bool below = c2p_below_root(r);
  lo = !converged & below ? std::max(lo, z) : lo;
  hi = !converged & !below ? std::min(hi, z) : hi;
  return converged;
}

/// Second half: the next iterate after c2p_bracket. Newton from z with the
/// analytic slope r.df when that stays finite and strictly inside
/// [lo, hi]; bisection otherwise (a zero or NaN slope lands there too), and
/// always for an unphysical r.
[[gnu::always_inline]] inline double c2p_step(const C2PResidual& r, double z,
                                              double lo, double hi) {
  const double newton = z - r.f / r.df;
  const bool inside = (newton > lo) & (newton < hi) & std::isfinite(newton);
  return r.physical & inside ? newton : 0.5 * (lo + hi);
}

/// The primitive state a converged residual `r` at z hands back:
/// positivity floors on rho and p, and the velocity from inverting
/// S = (z + B^2) v - (v.B) B, i.e. v = (S + vB B) / (z + B^2), vB = S.B / z.
/// B and psi pass through.
[[gnu::always_inline]] inline Prim c2p_floored(const Cons& u,
                                               const C2PResidual& r,
                                               double z,
                                               const Con2PrimOptions& opt) {
  const double SB = u.s_dot_b();
  const double B2 = u.b_sq();
  const double vB = SB / z;
  Prim w;
  w.rho = std::max(r.rho, opt.rho_floor);
  w.p = std::max(r.p, opt.p_floor);
  w.vx = (u.sx + vB * u.bx) / (z + B2);
  w.vy = (u.sy + vB * u.by) / (z + B2);
  w.vz = (u.sz + vB * u.bz) / (z + B2);
  w.bx = u.bx;
  w.by = u.by;
  w.bz = u.bz;
  w.psi = u.psi;
  return w;
}

/// Atmosphere: keep the magnetic field (it is directly evolved and
/// divergence-constrained) and psi; reset the fluid to the floors at rest.
[[gnu::always_inline]] inline Prim c2p_atmosphere(
    const Cons& u, const Con2PrimOptions& opt) {
  Prim w;
  w.rho = opt.rho_floor;
  w.p = opt.p_floor;
  w.bx = u.bx;
  w.by = u.by;
  w.bz = u.bz;
  w.psi = u.psi;
  return w;
}

/// The root solve behind cons_to_prim, without its checked-build state
/// check: the batched kernels run it on their per-zone tail, and the
/// solver checks every zone those kernels write, with its coordinates.
[[nodiscard]] inline Con2PrimResult c2p_solve(const Cons& u,
                                              const eos::IdealGas& eos,
                                              const Con2PrimOptions& opt,
                                              const Prim& guess) {
  Con2PrimResult out;
  out.prim = detail::c2p_atmosphere(u, opt);
  out.floored = true;
  const detail::C2PInput in = detail::c2p_input(u);
  detail::C2PStart s = detail::c2p_start(in, eos, opt);
  for (int g = 0; g < detail::kMaxExpansions && s.valid && s.below; ++g) {
    detail::c2p_expand(in, eos, s.hi, s.below);
  }
  if (s.valid && !s.below) {
    double z = detail::c2p_first(detail::c2p_guess(guess, eos), s.lo, s.hi);
    for (int it = 0; it < opt.max_iterations; ++it) {
      out.iterations = it + 1;
      const detail::C2PResidual r = detail::c2p_evaluate(in, z, eos);
      if (detail::c2p_bracket(in, r, z, opt, s.lo, s.hi)) {
        out.prim = detail::c2p_floored(u, r, z, opt);
        out.converged = true;
        out.floored = false;
        break;
      }
      z = detail::c2p_step(r, z, s.lo, s.hi);
    }
  }
  return out;
}

}  // namespace detail

/// Recover primitives from conservatives. Always returns a usable Prim:
/// when the root solve fails or the state is unphysical, the atmosphere
/// floor is applied and `floored` is set. `guess` is the zone's previous
/// primitive state; its z starts the Newton solve when admissible (see
/// detail::c2p_first), and the default takes the cold start.
[[nodiscard]] inline Con2PrimResult cons_to_prim(
    const Cons& u, const eos::IdealGas& eos, const Con2PrimOptions& opt = {},
    const Prim& guess = {}) {
  const Con2PrimResult out = detail::c2p_solve(u, eos, opt, guess);
  // Same contract as SRHD: nothing unphysical leaves c2p, floored or not
  // (see check.hpp; zone provenance is added by the solver site).
  RSHC_CHECK_PRIM("srmhd.con2prim", out.prim, -1, -1, -1, -1);
  return out;
}

}  // namespace rshc::srmhd
