#pragma once
// Batched SoA kernels over SRMHD zone arrays — the host-pipeline (and
// offload) surface mirroring rshc/srhd/kernels.hpp. Same two-TU
// compilation scheme:
//   kernels::scalar — baseline flags (vectorization disabled)
//   kernels::simd   — -O3 -march=native -fno-math-errno -fno-trapping-math;
//                     the loops vectorize, cons_to_prim_n included (a
//                     lane-masked bracket expansion and Newton solve over
//                     groups of 8 zones)
// Both run the header-inline, branch-free per-zone physics
// (srmhd/con2prim.hpp, srmhd/state.hpp) with -ffp-contract=off, so they
// are bitwise identical to cons_to_prim and max_signal_speed.

#include <cstddef>

#include "rshc/srmhd/con2prim.hpp"

namespace rshc::srmhd::kernels {

struct BatchStats {
  long long total_iterations = 0;
  long long failures = 0;  ///< zones that hit the atmosphere fallback
};

// NOLINTBEGIN(bugprone-easily-swappable-parameters) — SoA arrays by design.
#define RSHC_SRMHD_DECLARE_KERNELS                                            \
  /* cons -> prim over n zones (B and psi pass through); returns stats. */    \
  /* rho, vx, vy, vz and p are read first, as each zone's guess (its old */    \
  /* z = rho h W^2), and then overwritten; zero-filled arrays give the */     \
  /* cold start. No state check, as in the SRHD kernel: the caller */         \
  /* checks each zone with its coordinates. */                                \
  BatchStats cons_to_prim_n(                                                  \
      std::size_t n, const double* d, const double* sx, const double* sy,     \
      const double* sz, const double* tau, const double* ubx,                 \
      const double* uby, const double* ubz, const double* upsi, double* rho,  \
      double* vx, double* vy, double* vz, double* p, double* bx, double* by,  \
      double* bz, double* psi, double gamma, const Con2PrimOptions& opt);     \
  /* per-zone max fast-mode speed (CFL bound) */                              \
  void max_speed_n(std::size_t n, const double* rho, const double* vx,        \
                   const double* vy, const double* vz, const double* p,       \
                   const double* bx, const double* by, const double* bz,      \
                   const double* psi, double* speed, double gamma, int ndim);

namespace scalar {
RSHC_SRMHD_DECLARE_KERNELS
}
namespace simd {
RSHC_SRMHD_DECLARE_KERNELS
}
#undef RSHC_SRMHD_DECLARE_KERNELS
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace rshc::srmhd::kernels
