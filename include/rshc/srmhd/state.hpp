#pragma once
// Special relativistic magnetohydrodynamics (SRMHD) in the conservative
// Del Zanna & Bucciantini formulation (units c = 1), extended with a GLM
// (Dedner) divergence-cleaning scalar psi:
//   D   = rho W
//   S_i = (rho h W^2 + B^2) v_i - (v.B) B_i
//   tau = rho h W^2 - p + B^2/2 + (v^2 B^2 - (v.B)^2)/2 - D
//   B_i = lab-frame magnetic field
//   psi = divergence-cleaning scalar (advects div B away and damps it)

#include <algorithm>
#include <cmath>

#include "rshc/eos/ideal_gas.hpp"

namespace rshc::srmhd {

inline constexpr int kNumVars = 9;

enum Var : int {
  kD = 0, kSx = 1, kSy = 2, kSz = 3, kTau = 4,
  kBx = 5, kBy = 6, kBz = 7, kPsi = 8,
};
enum PrimVar : int {
  kRho = 0, kVx = 1, kVy = 2, kVz = 3, kP = 4,
  // Prim reuses kBx..kPsi slots for B and psi (they are both prim & cons).
};

struct Prim {
  double rho = 0.0;
  double vx = 0.0, vy = 0.0, vz = 0.0;
  double p = 0.0;
  double bx = 0.0, by = 0.0, bz = 0.0;
  double psi = 0.0;

  [[nodiscard]] double v_sq() const { return vx * vx + vy * vy + vz * vz; }
  [[nodiscard]] double b_sq_lab() const { return bx * bx + by * by + bz * bz; }
  [[nodiscard]] double v_dot_b() const { return vx * bx + vy * by + vz * bz; }
  [[nodiscard]] double lorentz() const { return 1.0 / std::sqrt(1.0 - v_sq()); }
  [[nodiscard]] double v(int axis) const {
    return axis == 0 ? vx : (axis == 1 ? vy : vz);
  }
  [[nodiscard]] double b(int axis) const {
    return axis == 0 ? bx : (axis == 1 ? by : bz);
  }
  /// Comoving-frame field strength squared b^2 = B^2/W^2 + (v.B)^2.
  [[nodiscard]] double b_sq_comoving() const {
    return b_sq_lab() * (1.0 - v_sq()) + v_dot_b() * v_dot_b();
  }
};

struct Cons {
  double d = 0.0;
  double sx = 0.0, sy = 0.0, sz = 0.0;
  double tau = 0.0;
  double bx = 0.0, by = 0.0, bz = 0.0;
  double psi = 0.0;

  [[nodiscard]] double s_sq() const { return sx * sx + sy * sy + sz * sz; }
  [[nodiscard]] double b_sq() const { return bx * bx + by * by + bz * bz; }
  [[nodiscard]] double s_dot_b() const { return sx * bx + sy * by + sz * bz; }
  [[nodiscard]] double s(int axis) const {
    return axis == 0 ? sx : (axis == 1 ? sy : sz);
  }
  [[nodiscard]] double b(int axis) const {
    return axis == 0 ? bx : (axis == 1 ? by : bz);
  }

  Cons& operator+=(const Cons& o) {
    d += o.d; sx += o.sx; sy += o.sy; sz += o.sz; tau += o.tau;
    bx += o.bx; by += o.by; bz += o.bz; psi += o.psi;
    return *this;
  }
  friend Cons operator*(double a, const Cons& c) {
    return {a * c.d, a * c.sx, a * c.sy, a * c.sz, a * c.tau,
            a * c.bx, a * c.by, a * c.bz, a * c.psi};
  }
  friend Cons operator+(Cons a, const Cons& b) { return a += b; }
  friend Cons operator-(const Cons& a, const Cons& b) {
    return {a.d - b.d,   a.sx - b.sx, a.sy - b.sy,
            a.sz - b.sz, a.tau - b.tau, a.bx - b.bx,
            a.by - b.by, a.bz - b.bz, a.psi - b.psi};
  }
};

struct SignalSpeeds {
  double lambda_minus = 0.0;
  double lambda_plus = 0.0;
};

// ---------------------------------------------------------------------------
// Inline implementations, header-inline like srhd/state.hpp: the per-zone
// callers, the scalar and simd kernel TUs (src/srmhd/kernels_*.cpp) and the
// face-kernel TUs (src/riemann/faces_*.cpp) each compile them under their
// own flags, and -ffp-contract=off on the kernel TUs keeps every copy bitwise
// identical. They are branch-free (selects, no early returns; the axis
// switches fold away once the face row fixes the axis) and forced inline,
// so the batched loops that call them vectorize: left to itself, GCC keeps
// an out-of-line call in the face loop and gives up on it.
// ---------------------------------------------------------------------------

/// Exact prim -> cons map.
[[nodiscard, gnu::always_inline]] inline Cons prim_to_cons(
    const Prim& w, const eos::IdealGas& eos) {
  const double W = w.lorentz();
  const double W2 = W * W;
  const double h = eos.enthalpy(w.rho, w.p);
  const double z = w.rho * h * W2;  // rho h W^2
  const double B2 = w.b_sq_lab();
  const double vB = w.v_dot_b();
  const double v2 = w.v_sq();

  Cons u;
  u.d = w.rho * W;
  u.sx = (z + B2) * w.vx - vB * w.bx;
  u.sy = (z + B2) * w.vy - vB * w.by;
  u.sz = (z + B2) * w.vz - vB * w.bz;
  const double E = z - w.p + 0.5 * B2 + 0.5 * (v2 * B2 - vB * vB);
  u.tau = E - u.d;
  u.bx = w.bx;
  u.by = w.by;
  u.bz = w.bz;
  u.psi = w.psi;
  return u;
}

/// Physical flux along `axis` (GLM terms excluded — the Riemann solver adds
/// the upwinded psi/Bn coupling; see riemann::detail::srmhd_hll).
[[nodiscard, gnu::always_inline]] inline Cons flux(const Prim& w,
                                                   const Cons& u, int axis,
                                                   const eos::IdealGas& eos) {
  const double W = w.lorentz();
  const double W2 = W * W;
  const double vd = w.v(axis);
  const double Bd = w.b(axis);
  const double vB = w.v_dot_b();
  const double B2 = w.b_sq_lab();
  const double b2 = B2 / W2 + vB * vB;
  const double ptot = w.p + 0.5 * b2;
  (void)eos;

  Cons f;
  f.d = u.d * vd;
  // F(S_i) = S_i v_d - B_d (B_i / W^2 + (v.B) v_i) + p_tot delta_id
  f.sx = u.sx * vd - Bd * (w.bx / W2 + vB * w.vx);
  f.sy = u.sy * vd - Bd * (w.by / W2 + vB * w.vy);
  f.sz = u.sz * vd - Bd * (w.bz / W2 + vB * w.vz);
  switch (axis) {
    case 0: f.sx += ptot; break;
    case 1: f.sy += ptot; break;
    default: f.sz += ptot; break;
  }
  // Energy flux = S_d; tau flux = S_d - D v_d.
  f.tau = u.s(axis) - u.d * vd;
  // Induction: F_d(B_i) = v_d B_i - v_i B_d ; F_d(B_d) = 0 (GLM adds psi).
  f.bx = vd * w.bx - w.vx * Bd;
  f.by = vd * w.by - w.vy * Bd;
  f.bz = vd * w.bz - w.vz * Bd;
  switch (axis) {
    case 0: f.bx = 0.0; break;
    case 1: f.by = 0.0; break;
    default: f.bz = 0.0; break;
  }
  f.psi = 0.0;  // GLM coupling handled at the interface
  return f;
}

/// Fast-magnetosonic bound on the characteristic speeds along `axis`,
/// using the standard a^2 = cs^2 + c_A^2 - cs^2 c_A^2 approximation
/// (Gammie et al. 2003) inserted into the relativistic eigenvalue formula.
[[nodiscard, gnu::always_inline]] inline SignalSpeeds fast_speeds(
    const Prim& w, int axis, const eos::IdealGas& eos) {
  const double cs2 =
      std::clamp(eos.sound_speed_sq(w.rho, w.p), 0.0, 1.0 - 1e-12);
  const double b2 = w.b_sq_comoving();
  const double rho_h = w.rho * eos.enthalpy(w.rho, w.p);
  const double ca2 = b2 / (rho_h + b2);  // relativistic Alfven speed^2
  const double a2 = std::clamp(cs2 + ca2 - cs2 * ca2, 0.0, 1.0 - 1e-12);

  const double v2 = w.v_sq();
  const double vd = w.v(axis);
  const double denom = 1.0 - v2 * a2;
  const double disc = (1.0 - v2) * (1.0 - vd * vd - (v2 - vd * vd) * a2);
  // Clamp before the sqrt (a select, not a branch); sqrt(+0.0) is the 0.0
  // a non-positive (or NaN) disc always gave.
  const double root = std::sqrt(disc > 0.0 ? disc : 0.0);
  const double a = std::sqrt(a2);
  SignalSpeeds s;
  s.lambda_minus = (vd * (1.0 - a2) - a * root) / denom;
  s.lambda_plus = (vd * (1.0 - a2) + a * root) / denom;
  return s;
}

/// Max |lambda| over all axes for the CFL bound. The nested two-argument
/// std::max folds left exactly like the initializer-list overload (same
/// comparisons, same operand order, same NaN behaviour) and, unlike it,
/// vectorizes.
[[nodiscard, gnu::always_inline]] inline double max_signal_speed(
    const Prim& w, const eos::IdealGas& eos, int ndim) {
  double vmax = 0.0;
  // Unrolled whenever ndim is a compile-time constant (the batched CFL
  // scan fixes it): GCC's size limit otherwise keeps the 3D axis loop.
#pragma GCC unroll 3
  for (int axis = 0; axis < ndim; ++axis) {
    const SignalSpeeds s = fast_speeds(w, axis, eos);
    vmax = std::max(std::max(vmax, std::abs(s.lambda_minus)),
                    std::abs(s.lambda_plus));
  }
  return vmax;
}

}  // namespace rshc::srmhd
