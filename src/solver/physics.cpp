#include "rshc/solver/physics.hpp"

#include <algorithm>
#include <cmath>

#include "rshc/riemann/face_solvers.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace rshc::solver {

void SrhdPhysics::limit_face_state(Prim& w, const Context& ctx) {
  // Single definition shared with the batched face kernels, so both host
  // pipelines limit with identical arithmetic.
  riemann::detail::limit_face(w, ctx.c2p.rho_floor, ctx.c2p.p_floor);
}

void SrhdPhysics::cons_to_prim_n(bool simd, std::size_t n,
                                 const double* const* u, double* const* w,
                                 const Context& ctx, C2PStats& stats) {
  const auto run = simd ? &srhd::kernels::simd::cons_to_prim_n
                        : &srhd::kernels::scalar::cons_to_prim_n;
  const auto r =
      run(n, u[srhd::kD], u[srhd::kSx], u[srhd::kSy], u[srhd::kSz],
          u[srhd::kTau], w[srhd::kRho], w[srhd::kVx], w[srhd::kVy],
          w[srhd::kVz], w[srhd::kP], ctx.eos.gamma(), ctx.c2p);
  stats.total_iterations += r.total_iterations;
  stats.floored_zones += r.failures;
}

void SrhdPhysics::max_speed_n(bool simd, std::size_t n, const double* const* w,
                              double* speed, const Context& ctx, int ndim) {
  const auto run = simd ? &srhd::kernels::simd::max_speed_n
                        : &srhd::kernels::scalar::max_speed_n;
  run(n, w[srhd::kRho], w[srhd::kVx], w[srhd::kVy], w[srhd::kVz], w[srhd::kP],
      speed, ctx.eos.gamma(), ndim);
}

void SrmhdPhysics::limit_face_state(Prim& w, const Context& ctx) {
  riemann::detail::limit_face(w, ctx.c2p.rho_floor, ctx.c2p.p_floor);
}

bool SrhdPhysics::interface_flux_n(bool simd, std::size_t n, int axis,
                                   const double* const* wl,
                                   const double* const* wr, double* const* f,
                                   const Context& ctx) {
  const auto run = simd ? &riemann::kernels::simd::srhd_faces_n
                        : &riemann::kernels::scalar::srhd_faces_n;
  run(n, axis, ctx.riemann, wl, wr, f, ctx.eos, ctx.c2p.rho_floor,
      ctx.c2p.p_floor);
  return true;
}

bool SrmhdPhysics::interface_flux_n(bool simd, std::size_t n, int axis,
                                    const double* const* wl,
                                    const double* const* wr, double* const* f,
                                    const Context& ctx) {
  const auto run = simd ? &riemann::kernels::simd::srmhd_faces_n
                        : &riemann::kernels::scalar::srmhd_faces_n;
  run(n, axis, wl, wr, f, ctx.eos, ctx.glm, ctx.c2p.rho_floor,
      ctx.c2p.p_floor);
  return true;
}

void rk_combine_n(bool simd, std::size_t n, double a, const double* x,
                  double b, double* y, double c, const double* z) {
  const auto run = simd ? &srhd::kernels::simd::rk_combine_n
                        : &srhd::kernels::scalar::rk_combine_n;
  run(n, a, x, b, y, c, z);
}

void SrmhdPhysics::cons_to_prim_n(bool simd, std::size_t n,
                                  const double* const* u, double* const* w,
                                  const Context& ctx, C2PStats& stats) {
  const auto run = simd ? &srmhd::kernels::simd::cons_to_prim_n
                        : &srmhd::kernels::scalar::cons_to_prim_n;
  const auto r = run(n, u[srmhd::kD], u[srmhd::kSx], u[srmhd::kSy],
                     u[srmhd::kSz], u[srmhd::kTau], u[srmhd::kBx],
                     u[srmhd::kBy], u[srmhd::kBz], u[srmhd::kPsi],
                     w[srmhd::kRho], w[srmhd::kVx], w[srmhd::kVy],
                     w[srmhd::kVz], w[srmhd::kP], w[srmhd::kBx], w[srmhd::kBy],
                     w[srmhd::kBz], w[srmhd::kPsi], ctx.eos.gamma(), ctx.c2p);
  stats.total_iterations += r.total_iterations;
  stats.floored_zones += r.failures;
}

void SrmhdPhysics::max_speed_n(bool simd, std::size_t n, const double* const* w,
                               double* speed, const Context& ctx, int ndim) {
  const auto run = simd ? &srmhd::kernels::simd::max_speed_n
                        : &srmhd::kernels::scalar::max_speed_n;
  run(n, w[srmhd::kRho], w[srmhd::kVx], w[srmhd::kVy], w[srmhd::kVz],
      w[srmhd::kP], w[srmhd::kBx], w[srmhd::kBy], w[srmhd::kBz],
      w[srmhd::kPsi], speed, ctx.eos.gamma(), ndim);
}

void SrmhdPhysics::post_step(mesh::FieldArray& cons, mesh::FieldArray& prim,
                             const Context& ctx, double dt, double dx_min) {
  const double factor = srmhd::glm_damping_factor(ctx.glm, dt, dx_min);
  if (factor >= 1.0) return;
  for (double& psi : cons.var(srmhd::kPsi)) psi *= factor;
  for (double& psi : prim.var(srmhd::kPsi)) psi *= factor;
}

}  // namespace rshc::solver
