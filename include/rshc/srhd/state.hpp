#pragma once
// Special relativistic hydrodynamics (SRHD) state vectors and conversions.
// Conservative formulation (units c = 1):
//   D   = rho W                 (lab-frame rest-mass density)
//   S_i = rho h W^2 v_i         (momentum density)
//   tau = rho h W^2 - p - D     (energy density minus rest mass)
// with W = (1 - v^2)^{-1/2} the Lorentz factor and h the specific enthalpy.

#include <array>
#include <cmath>

#include "rshc/eos/ideal_gas.hpp"

namespace rshc::srhd {

inline constexpr int kNumVars = 5;

/// Variable ordering shared by Prim/Cons SoA layouts.
enum Var : int { kD = 0, kSx = 1, kSy = 2, kSz = 3, kTau = 4 };
enum PrimVar : int { kRho = 0, kVx = 1, kVy = 2, kVz = 3, kP = 4 };

struct Prim {
  double rho = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  double vz = 0.0;
  double p = 0.0;

  [[nodiscard]] double v_sq() const { return vx * vx + vy * vy + vz * vz; }
  [[nodiscard]] double lorentz() const {
    return 1.0 / std::sqrt(1.0 - v_sq());
  }
  [[nodiscard]] double v(int axis) const {
    return axis == 0 ? vx : (axis == 1 ? vy : vz);
  }
};

struct Cons {
  double d = 0.0;
  double sx = 0.0;
  double sy = 0.0;
  double sz = 0.0;
  double tau = 0.0;

  [[nodiscard]] double s_sq() const { return sx * sx + sy * sy + sz * sz; }
  [[nodiscard]] double s(int axis) const {
    return axis == 0 ? sx : (axis == 1 ? sy : sz);
  }

  Cons& operator+=(const Cons& o) {
    d += o.d; sx += o.sx; sy += o.sy; sz += o.sz; tau += o.tau;
    return *this;
  }
  friend Cons operator*(double a, const Cons& c) {
    return {a * c.d, a * c.sx, a * c.sy, a * c.sz, a * c.tau};
  }
  friend Cons operator+(Cons a, const Cons& b) { return a += b; }
  friend Cons operator-(const Cons& a, const Cons& b) {
    return {a.d - b.d, a.sx - b.sx, a.sy - b.sy, a.sz - b.sz, a.tau - b.tau};
  }
};

struct SignalSpeeds {
  double lambda_minus = 0.0;
  double lambda_plus = 0.0;
};

// ---------------------------------------------------------------------------
// Inline implementations: these are header-inline (not in a .cpp) so the
// scalar and SIMD kernel translation units can each compile them under their
// own optimization flags (see src/srhd/kernels_*.cpp).
// ---------------------------------------------------------------------------

inline Cons prim_to_cons(const Prim& w, const eos::IdealGas& eos) {
  const double W = w.lorentz();
  const double h = eos.enthalpy(w.rho, w.p);
  const double rho_h_W2 = w.rho * h * W * W;
  Cons u;
  u.d = w.rho * W;
  u.sx = rho_h_W2 * w.vx;
  u.sy = rho_h_W2 * w.vy;
  u.sz = rho_h_W2 * w.vz;
  u.tau = rho_h_W2 - w.p - u.d;
  return u;
}

inline Cons flux(const Prim& w, const Cons& u, int axis) {
  const double vd = w.v(axis);
  Cons f;
  f.d = u.d * vd;
  f.sx = u.sx * vd;
  f.sy = u.sy * vd;
  f.sz = u.sz * vd;
  switch (axis) {
    case 0: f.sx += w.p; break;
    case 1: f.sy += w.p; break;
    default: f.sz += w.p; break;
  }
  // F(tau) = (tau + p) v_d = S_d - D v_d.
  f.tau = u.s(axis) - u.d * vd;
  return f;
}

inline SignalSpeeds signal_speeds(const Prim& w, int axis,
                                  const eos::IdealGas& eos) {
  const double cs2 = eos.sound_speed_sq(w.rho, w.p);
  const double v2 = w.v_sq();
  const double vd = w.v(axis);
  const double denom = 1.0 - v2 * cs2;
  // Marti & Mueller (2003) acoustic eigenvalues in 3D:
  // lambda_pm = [ v_d (1-cs2) pm cs sqrt((1-v2)(1 - vd^2 - (v2-vd^2) cs2)) ]
  //             / (1 - v2 cs2)
  const double disc = (1.0 - v2) * (1.0 - vd * vd - (v2 - vd * vd) * cs2);
  // Clamp before the sqrt (a select, not a branch); sqrt(+0.0) keeps the
  // old disc <= 0 result, and no -0.0 can reach it.
  const double root = std::sqrt(disc > 0.0 ? disc : 0.0);
  const double cs = std::sqrt(cs2);
  SignalSpeeds s;
  s.lambda_minus = (vd * (1.0 - cs2) - cs * root) / denom;
  s.lambda_plus = (vd * (1.0 - cs2) + cs * root) / denom;
  return s;
}

inline double max_signal_speed(const Prim& w, const eos::IdealGas& eos,
                               int ndim) {
  double vmax = 0.0;
  for (int axis = 0; axis < ndim; ++axis) {
    const SignalSpeeds s = signal_speeds(w, axis, eos);
    const double m =
        s.lambda_minus < 0.0 ? -s.lambda_minus : s.lambda_minus;
    const double pl = s.lambda_plus < 0.0 ? -s.lambda_plus : s.lambda_plus;
    vmax = m > vmax ? m : vmax;
    vmax = pl > vmax ? pl : vmax;
  }
  return vmax;
}

}  // namespace rshc::srhd
