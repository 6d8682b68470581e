#pragma once
// Physics traits binding the generic finite-volume machinery (FvSolver) to
// a concrete system of equations. Two instantiations ship: SrhdPhysics and
// SrmhdPhysics. A trait supplies variable counts, state types, load/store
// between FieldArray SoA storage and state structs, the physical maps
// (prim<->cons, interface flux, signal speeds) and the per-step hook used
// by GLM damping.

#include <cstddef>
#include <vector>

#include "rshc/eos/ideal_gas.hpp"
#include "rshc/mesh/field_array.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srhd/con2prim.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/con2prim.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::solver {

/// Accumulated con2prim health counters for one step (experiment T4's
/// in-situ analogue; also the failure-injection observability hook).
struct C2PStats {
  long long total_iterations = 0;
  long long floored_zones = 0;

  C2PStats& operator+=(const C2PStats& o) {
    total_iterations += o.total_iterations;
    floored_zones += o.floored_zones;
    return *this;
  }
};

struct SrhdPhysics {
  static constexpr int kNumCons = srhd::kNumVars;
  static constexpr int kNumPrim = srhd::kNumVars;
  using Prim = srhd::Prim;
  using Cons = srhd::Cons;

  struct Context {
    eos::IdealGas eos{4.0 / 3.0};
    srhd::Con2PrimOptions c2p{};
    riemann::Solver riemann = riemann::Solver::kHLL;
  };

  static Prim load_prim(const mesh::FieldArray& w, int k, int j, int i) {
    return Prim{w(srhd::kRho, k, j, i), w(srhd::kVx, k, j, i),
                w(srhd::kVy, k, j, i), w(srhd::kVz, k, j, i),
                w(srhd::kP, k, j, i)};
  }
  static void store_prim(mesh::FieldArray& w, int k, int j, int i,
                         const Prim& p) {
    w(srhd::kRho, k, j, i) = p.rho;
    w(srhd::kVx, k, j, i) = p.vx;
    w(srhd::kVy, k, j, i) = p.vy;
    w(srhd::kVz, k, j, i) = p.vz;
    w(srhd::kP, k, j, i) = p.p;
  }
  static Cons load_cons(const mesh::FieldArray& u, int k, int j, int i) {
    return Cons{u(srhd::kD, k, j, i), u(srhd::kSx, k, j, i),
                u(srhd::kSy, k, j, i), u(srhd::kSz, k, j, i),
                u(srhd::kTau, k, j, i)};
  }
  static void store_cons(mesh::FieldArray& u, int k, int j, int i,
                         const Cons& c) {
    u(srhd::kD, k, j, i) = c.d;
    u(srhd::kSx, k, j, i) = c.sx;
    u(srhd::kSy, k, j, i) = c.sy;
    u(srhd::kSz, k, j, i) = c.sz;
    u(srhd::kTau, k, j, i) = c.tau;
  }

  /// Build a Prim from per-variable reconstructed values.
  static Prim prim_from_components(const double* q) {
    return Prim{q[srhd::kRho], q[srhd::kVx], q[srhd::kVy], q[srhd::kVz],
                q[srhd::kP]};
  }
  /// Decompose a Cons into per-variable values (Var order) — the inverse of
  /// prim_from_components, used by the batched flux staging.
  static void cons_components(const Cons& c, double* q) {
    q[srhd::kD] = c.d;
    q[srhd::kSx] = c.sx;
    q[srhd::kSy] = c.sy;
    q[srhd::kSz] = c.sz;
    q[srhd::kTau] = c.tau;
  }

  // Batched span-level kernels for the host pipeline: `u` holds kNumCons
  // SoA spans in Var order, `w` kNumPrim spans in PrimVar order, all of
  // length n. `simd` selects the kernel translation unit; both variants
  // are bitwise-identical to the per-zone to_prim / max_speed calls.
  // cons_to_prim_n reads `w` as each zone's guess before overwriting it,
  // as to_prim does with its `guess`.
  static void cons_to_prim_n(bool simd, std::size_t n, const double* const* u,
                             double* const* w, const Context& ctx,
                             C2PStats& stats);
  static void max_speed_n(bool simd, std::size_t n, const double* const* w,
                          double* speed, const Context& ctx, int ndim);
  /// Batched limiter + Riemann solve + flux over n interfaces: `wl`/`wr`
  /// hold kNumPrim face-state rows, `f` receives kNumCons flux rows.
  /// Every solver has a batched kernel, so this always returns true; the
  /// return value and `simd` stay until the scalar/simd kernel pairs
  /// merge, because the perfbench layer probe reads both. Bitwise
  /// identical to limit_face_state + interface_flux per zone.
  static bool interface_flux_n(bool simd, std::size_t n, int axis,
                               const double* const* wl,
                               const double* const* wr, double* const* f,
                               const Context& ctx);

  static Cons to_cons(const Prim& w, const Context& ctx) {
    return srhd::prim_to_cons(w, ctx.eos);
  }
  /// Per-zone con2prim, warm-started from `guess` (the zone's previous
  /// prims) when admissible; the default takes the cold start.
  static Prim to_prim(const Cons& u, const Context& ctx, C2PStats& stats,
                      const Prim& guess = {}) {
    const auto r = srhd::cons_to_prim(u, ctx.eos, ctx.c2p, guess);
    stats.total_iterations += r.iterations;
    stats.floored_zones += r.floored ? 1 : 0;
    return r.prim;
  }
  static Cons interface_flux(const Prim& wl, const Prim& wr, int axis,
                             const Context& ctx) {
    return riemann::solve_srhd(ctx.riemann, wl, wr, axis, ctx.eos);
  }
  static double max_speed(const Prim& w, const Context& ctx, int ndim) {
    return srhd::max_signal_speed(w, ctx.eos, ndim);
  }
  /// Primitive variables whose sign flips under reflection across `axis`.
  static std::vector<int> reflect_negate_vars(int axis) {
    return {srhd::kVx + axis};
  }
  /// Sanitize reconstructed face states (positivity of rho, p; |v| < 1).
  static void limit_face_state(Prim& w, const Context& ctx);
  /// Per-step hook (psi damping for MHD); no-op here.
  static void post_step(mesh::FieldArray&, mesh::FieldArray&, const Context&,
                        double /*dt*/, double /*dx_min*/) {}
};

struct SrmhdPhysics {
  static constexpr int kNumCons = srmhd::kNumVars;
  static constexpr int kNumPrim = srmhd::kNumVars;
  using Prim = srmhd::Prim;
  using Cons = srmhd::Cons;

  struct Context {
    eos::IdealGas eos{5.0 / 3.0};
    srmhd::Con2PrimOptions c2p{};
    srmhd::GlmParams glm{};
  };

  static Prim load_prim(const mesh::FieldArray& w, int k, int j, int i) {
    Prim p;
    p.rho = w(srmhd::kRho, k, j, i);
    p.vx = w(srmhd::kVx, k, j, i);
    p.vy = w(srmhd::kVy, k, j, i);
    p.vz = w(srmhd::kVz, k, j, i);
    p.p = w(srmhd::kP, k, j, i);
    p.bx = w(srmhd::kBx, k, j, i);
    p.by = w(srmhd::kBy, k, j, i);
    p.bz = w(srmhd::kBz, k, j, i);
    p.psi = w(srmhd::kPsi, k, j, i);
    return p;
  }
  static void store_prim(mesh::FieldArray& w, int k, int j, int i,
                         const Prim& p) {
    w(srmhd::kRho, k, j, i) = p.rho;
    w(srmhd::kVx, k, j, i) = p.vx;
    w(srmhd::kVy, k, j, i) = p.vy;
    w(srmhd::kVz, k, j, i) = p.vz;
    w(srmhd::kP, k, j, i) = p.p;
    w(srmhd::kBx, k, j, i) = p.bx;
    w(srmhd::kBy, k, j, i) = p.by;
    w(srmhd::kBz, k, j, i) = p.bz;
    w(srmhd::kPsi, k, j, i) = p.psi;
  }
  static Cons load_cons(const mesh::FieldArray& u, int k, int j, int i) {
    Cons c;
    c.d = u(srmhd::kD, k, j, i);
    c.sx = u(srmhd::kSx, k, j, i);
    c.sy = u(srmhd::kSy, k, j, i);
    c.sz = u(srmhd::kSz, k, j, i);
    c.tau = u(srmhd::kTau, k, j, i);
    c.bx = u(srmhd::kBx, k, j, i);
    c.by = u(srmhd::kBy, k, j, i);
    c.bz = u(srmhd::kBz, k, j, i);
    c.psi = u(srmhd::kPsi, k, j, i);
    return c;
  }
  static void store_cons(mesh::FieldArray& u, int k, int j, int i,
                         const Cons& c) {
    u(srmhd::kD, k, j, i) = c.d;
    u(srmhd::kSx, k, j, i) = c.sx;
    u(srmhd::kSy, k, j, i) = c.sy;
    u(srmhd::kSz, k, j, i) = c.sz;
    u(srmhd::kTau, k, j, i) = c.tau;
    u(srmhd::kBx, k, j, i) = c.bx;
    u(srmhd::kBy, k, j, i) = c.by;
    u(srmhd::kBz, k, j, i) = c.bz;
    u(srmhd::kPsi, k, j, i) = c.psi;
  }

  static Prim prim_from_components(const double* q) {
    Prim p;
    p.rho = q[srmhd::kRho];
    p.vx = q[srmhd::kVx];
    p.vy = q[srmhd::kVy];
    p.vz = q[srmhd::kVz];
    p.p = q[srmhd::kP];
    p.bx = q[srmhd::kBx];
    p.by = q[srmhd::kBy];
    p.bz = q[srmhd::kBz];
    p.psi = q[srmhd::kPsi];
    return p;
  }
  static void cons_components(const Cons& c, double* q) {
    q[srmhd::kD] = c.d;
    q[srmhd::kSx] = c.sx;
    q[srmhd::kSy] = c.sy;
    q[srmhd::kSz] = c.sz;
    q[srmhd::kTau] = c.tau;
    q[srmhd::kBx] = c.bx;
    q[srmhd::kBy] = c.by;
    q[srmhd::kBz] = c.bz;
    q[srmhd::kPsi] = c.psi;
  }

  // Batched span-level kernels (see SrhdPhysics for the contract).
  static void cons_to_prim_n(bool simd, std::size_t n, const double* const* u,
                             double* const* w, const Context& ctx,
                             C2PStats& stats);
  static void max_speed_n(bool simd, std::size_t n, const double* const* w,
                          double* speed, const Context& ctx, int ndim);
  static bool interface_flux_n(bool simd, std::size_t n, int axis,
                               const double* const* wl,
                               const double* const* wr, double* const* f,
                               const Context& ctx);

  static Cons to_cons(const Prim& w, const Context& ctx) {
    return srmhd::prim_to_cons(w, ctx.eos);
  }
  static Prim to_prim(const Cons& u, const Context& ctx, C2PStats& stats,
                      const Prim& guess = {}) {
    const auto r = srmhd::cons_to_prim(u, ctx.eos, ctx.c2p, guess);
    stats.total_iterations += r.iterations;
    stats.floored_zones += r.floored ? 1 : 0;
    return r.prim;
  }
  static Cons interface_flux(const Prim& wl, const Prim& wr, int axis,
                             const Context& ctx) {
    return riemann::solve_srmhd_hll(wl, wr, axis, ctx.eos, ctx.glm);
  }
  static double max_speed(const Prim& w, const Context& ctx, int ndim) {
    return srmhd::max_signal_speed(w, ctx.eos, ndim);
  }
  static std::vector<int> reflect_negate_vars(int axis) {
    return {srmhd::kVx + axis, srmhd::kBx + axis};
  }
  static void limit_face_state(Prim& w, const Context& ctx);
  /// GLM psi damping, applied to both cons and prim psi slabs.
  static void post_step(mesh::FieldArray& cons, mesh::FieldArray& prim,
                        const Context& ctx, double dt, double dx_min);
};

/// y[i] = (a*x[i] + b*y[i]) + c*z[i] over n entries — the RK stage
/// combination as a physics-agnostic span kernel. `simd` selects the
/// kernel translation unit; both variants keep the per-pencil reference's
/// left-associated expression shape, so the result is bitwise identical.
void rk_combine_n(bool simd, std::size_t n, double a, const double* x,
                  double b, double* y, double c, const double* z);

}  // namespace rshc::solver
