#pragma once
// Conservative-to-primitive recovery for SRHD — the stiff nonlinear kernel
// at the heart of every relativistic HRSC step (experiment T4). We solve a
// 1D root problem in the pressure:
//     f(p) = p_eos(rho(p), eps(p)) - p = 0
// with  v^2(p) = S^2 / (E + p)^2,  E = tau + D,
//       W = (1 - v^2)^{-1/2},  rho = D / W,  h = (E + p) / (D W),
//       eps = h - 1 - p / rho.
// Newton iteration with the standard analytic slope df/dp = v^2 cs^2 - 1,
// guarded by a bisection bracket so pathological states still converge.
// The first iterate is the caller's guess (the solver passes the pressure
// this solve overwrites) when it lies strictly inside the bracket, and the
// zero-velocity ideal-gas estimate otherwise.
// Failures are *reported*, never thrown; callers apply the atmosphere
// policy (floors) and continue — matching production HRSC practice.
//
// Implementation is header-inline so the scalar/SIMD kernel TUs compile it
// under their own flags (same rationale as state.hpp).

#include <algorithm>
#include <cmath>

#include "rshc/check/check.hpp"
#include "rshc/srhd/state.hpp"

namespace rshc::srhd {

struct Con2PrimOptions {
  double tolerance = 1e-12;   ///< relative tolerance on f(p)/max(p, floor)
  int max_iterations = 60;
  double rho_floor = 1e-14;   ///< atmosphere rest-mass density
  double p_floor = 1e-16;     ///< atmosphere pressure
};

struct Con2PrimResult {
  Prim prim;
  int iterations = 0;
  bool converged = false;
  bool floored = false;  ///< atmosphere policy was applied
};

namespace detail {

// The solve is split into branch-free pieces — start, evaluate, bracket,
// step — that cons_to_prim below runs one zone at a time and the batched
// kernel (src/srhd/kernels_impl.inc) runs 32 or 8 lanes at a time. Sharing
// them is what keeps the two bitwise identical: each lane executes exactly
// the per-zone sequence of IEEE operations. "Branch-free" means every value
// is computed whatever the state and validity travels as a bool beside it,
// so a lane loop if-converts into vector selects.

/// Residual f(p) plus the primitive state implied by p. The fields mean
/// something only when `physical` (E + p > 0, v^2 < 1, rho > 0).
struct C2PResidual {
  double f = 0.0;
  double df = -1.0;  // analytic approximate slope
  Prim prim;
  bool physical = false;
};

inline C2PResidual c2p_evaluate(const Cons& u, double p,
                                const eos::IdealGas& eos) {
  const double E = u.tau + u.d;
  const double Ep = E + p;
  const double s2 = u.s_sq();
  const double v2 = s2 / (Ep * Ep);
  const double W = 1.0 / std::sqrt(1.0 - v2);
  const double rho = u.d / W;
  const double h = Ep / (u.d * W);
  const double eps = h - 1.0 - p / rho;
  const double p_eos = eos.pressure(rho, eps);
  const double cs2 = eos.gamma() * p_eos / (rho * h);
  C2PResidual r;
  r.f = p_eos - p;
  r.df = v2 * cs2 - 1.0;
  r.prim = Prim{rho, u.sx / Ep, u.sy / Ep, u.sz / Ep, p};
  r.physical = !(Ep <= 0.0) & !(v2 >= 1.0) & !(rho <= 0.0);
  return r;
}

/// Newton bracket [lo, hi] and starting pressure p. `admissible` is false
/// for zones that go straight to atmosphere: evacuated or non-finite
/// conservatives, or no physical state at the bottom of the bracket.
/// `guess` becomes p only when it lies strictly inside the bracket: NaN
/// and +-Inf fail the strict comparisons, and so does a zero-filled prim
/// slab (0 or -0.0; p_min >= p_floor > 0), which takes the cold start bit
/// for bit.
struct C2PStart {
  double p = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool admissible = false;
};

inline C2PStart c2p_start(const Cons& u, const eos::IdealGas& eos,
                          const Con2PrimOptions& opt, double guess) {
  const bool valid = (u.d > opt.rho_floor) & std::isfinite(u.d) &
                     std::isfinite(u.tau) & std::isfinite(u.s_sq());
  const double E = u.tau + u.d;
  const double s_abs = std::sqrt(u.s_sq());
  // Physicality requires E + p > |S| (subluminal velocity); start the
  // bracket just above the causal minimum.
  const double p_min =
      std::max(opt.p_floor, s_abs - E + 1e-14 * std::max(1.0, std::abs(E)));
  // Upper bound: generous multiple of the zero-velocity ideal-gas pressure.
  const double p_max =
      std::max(2.0 * p_min, 2.0 * (eos.gamma() - 1.0) * std::abs(E)) + 1.0;
  C2PStart s;
  // Cold start: zero-velocity ideal-gas estimate clipped into the bracket.
  const double cold = std::clamp((eos.gamma() - 1.0) * u.tau, p_min, p_max);
  s.p = (guess > p_min) & (guess < p_max) ? guess : cold;
  s.lo = p_min;
  s.hi = p_max;
  s.admissible = valid & c2p_evaluate(u, p_min, eos).physical;
  return s;
}

/// First half of one Newton update: test the residual `r` at p against
/// the tolerance and, when it fails, shrink the bisection bracket
/// [lo, hi] around the root. Returns true, leaving the bracket alone, when
/// r has converged.
inline bool c2p_bracket(const C2PResidual& r, const Con2PrimOptions& opt,
                        double p, double& lo, double& hi) {
  const double scale = std::max(std::max(std::abs(p), opt.p_floor), 1e-30);
  const bool converged =
      r.physical & (std::abs(r.f) <= opt.tolerance * scale);
  // f decreases in p near the root (df < 0), so f > 0 means the root lies
  // above p.
  const bool shrink = r.physical & !converged;
  const bool above = r.f > 0.0;
  lo = shrink & above ? std::max(lo, p) : lo;
  hi = shrink & !above ? std::min(hi, p) : hi;
  return converged;
}

/// Second half: the next iterate after c2p_bracket. Newton from p when it
/// stays finite and strictly inside [lo, hi]; bisection otherwise, and
/// always for an unphysical r.
inline double c2p_step(const C2PResidual& r, double p, double lo,
                       double hi) {
  const double newton = p - r.f / r.df;
  const bool inside = (newton > lo) & (newton < hi) & std::isfinite(newton);
  return r.physical & inside ? newton : 0.5 * (lo + hi);
}

/// The primitive state a converged residual hands back: positivity floors
/// on rho and p.
inline Prim c2p_floored(const Prim& w, const Con2PrimOptions& opt) {
  Prim out = w;
  out.rho = std::max(out.rho, opt.rho_floor);
  out.p = std::max(out.p, opt.p_floor);
  return out;
}

/// The root solve behind cons_to_prim, without its checked-build state
/// check: the batched kernels run it on their per-zone tail, and the
/// solver checks every zone those kernels write, with its coordinates.
[[nodiscard]] inline Con2PrimResult c2p_solve(const Cons& u,
                                              const eos::IdealGas& eos,
                                              const Con2PrimOptions& opt,
                                              const Prim& guess) {
  Con2PrimResult out;
  out.prim = Prim{opt.rho_floor, 0.0, 0.0, 0.0, opt.p_floor};  // atmosphere
  out.floored = true;
  detail::C2PStart s = detail::c2p_start(u, eos, opt, guess.p);
  if (s.admissible) {
    for (int it = 0; it < opt.max_iterations; ++it) {
      out.iterations = it + 1;
      const detail::C2PResidual r = detail::c2p_evaluate(u, s.p, eos);
      if (detail::c2p_bracket(r, opt, s.p, s.lo, s.hi)) {
        out.prim = detail::c2p_floored(r.prim, opt);
        out.converged = true;
        out.floored = false;
        break;
      }
      s.p = detail::c2p_step(r, s.p, s.lo, s.hi);
    }
  }
  return out;
}

}  // namespace detail

/// Recover primitives from conservatives. Always returns a usable Prim:
/// when the root solve fails or the state is unphysical, the atmosphere
/// floor is applied and `floored` is set. `guess` is the zone's previous
/// primitive state; its pressure starts the Newton solve when admissible
/// (see detail::c2p_start), and the default takes the cold start.
[[nodiscard]] inline Con2PrimResult cons_to_prim(
    const Cons& u, const eos::IdealGas& eos, const Con2PrimOptions& opt = {},
    const Prim& guess = {}) {
  const Con2PrimResult out = detail::c2p_solve(u, eos, opt, guess);
  // Whatever the root solve did, what leaves c2p must be physical —
  // including the floored components (a misconfigured atmosphere is a
  // checkable bug, not a recoverable state).
  RSHC_CHECK_PRIM("srhd.con2prim", out.prim, -1, -1, -1, -1);
  return out;
}

}  // namespace rshc::srhd
