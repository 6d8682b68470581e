#pragma once
// Batched SoA face kernels: limiter + Riemann solve + flux for a whole row
// of interfaces per call, consuming the reconstructed face-state rows the
// batched host pipeline already holds in SoA layout. Like the srhd/srmhd
// zone kernels, every kernel exists in two semantically identical variants
// compiled in separate translation units:
//   kernels::scalar — baseline flags (vectorization disabled)
//   kernels::simd   — -O3 -march=native -fno-math-errno -fno-trapping-math;
//                     the SRHD and SRMHD interface loops vectorize
//                     (branch-free cores, one interface per lane)
// Both carry -ffp-contract=off, so either variant is bitwise identical to
// the per-interface solve_srhd / solve_srmhd_hll reference path.
//
// Row layout: `wl` / `wr` are arrays of per-variable pointers in PrimVar
// order (left = right face of cell f, right = left face of cell f+1), `f`
// per-variable flux outputs in Var order, all rows of length n.

#include <cstddef>

#include "rshc/eos/ideal_gas.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srmhd/glm.hpp"

namespace rshc::riemann::kernels {

// NOLINTBEGIN(bugprone-easily-swappable-parameters) — SoA rows by design.
#define RSHC_DECLARE_FACE_KERNELS                                             \
  /* SRHD faces: LLF / HLL / HLLC (kExact has no batched kernel). */          \
  void srhd_faces_n(std::size_t n, int axis, Solver solver,                   \
                    const double* const* wl, const double* const* wr,         \
                    double* const* f, const eos::IdealGas& eos,               \
                    double rho_floor, double p_floor);                        \
  /* SRMHD faces: HLL with the upwind GLM (B_n, psi) coupling. */             \
  void srmhd_faces_n(std::size_t n, int axis, const double* const* wl,        \
                     const double* const* wr, double* const* f,               \
                     const eos::IdealGas& eos, const srmhd::GlmParams& glm,   \
                     double rho_floor, double p_floor);

namespace scalar {
RSHC_DECLARE_FACE_KERNELS
}
namespace simd {
RSHC_DECLARE_FACE_KERNELS
}
#undef RSHC_DECLARE_FACE_KERNELS
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace rshc::riemann::kernels
