#pragma once
// Batched SoA kernels over zone arrays — the offload surface for the
// heterogeneous device experiments (F5, F8). Every kernel exists in two
// semantically identical variants compiled in separate translation units:
//   kernels::scalar — baseline flags (vectorization disabled)
//   kernels::simd   — -O3 -march=native -fno-math-errno -fno-trapping-math;
//                     the loops vectorize, cons_to_prim_n included (a
//                     lane-masked Newton solve over groups of 8 zones)
// Both are bitwise identical to the per-zone functions (cons_to_prim,
// max_signal_speed, ...): same IEEE operations in the same order, with
// -ffp-contract=off. The simulated accelerator runs the simd variants on
// its stream worker.

#include <cstddef>

#include "rshc/srhd/con2prim.hpp"

namespace rshc::srhd::kernels {

struct BatchStats {
  long long total_iterations = 0;
  long long failures = 0;  ///< zones that hit the atmosphere fallback
};

enum class Variant { kScalar, kSimd };

// NOLINTBEGIN(bugprone-easily-swappable-parameters) — SoA arrays by design.
#define RSHC_DECLARE_KERNELS                                                   \
  /* prim -> cons over n zones */                                              \
  void prim_to_cons_n(std::size_t n, const double* rho, const double* vx,      \
                      const double* vy, const double* vz, const double* p,     \
                      double* d, double* sx, double* sy, double* sz,           \
                      double* tau, double gamma);                              \
  /* cons -> prim over n zones; returns iteration/failure stats. The prim */  \
  /* arrays are read first, as each zone's guess (its old pressure), and */    \
  /* then overwritten; zero-filled arrays give the cold start. Unlike */       \
  /* cons_to_prim it checks no state: the caller, which knows each zone's */   \
  /* block and coordinates, does (solver::core::update_batched). */            \
  BatchStats cons_to_prim_n(std::size_t n, const double* d,                    \
                            const double* sx, const double* sy,                \
                            const double* sz, const double* tau, double* rho,  \
                            double* vx, double* vy, double* vz, double* p,     \
                            double gamma, const Con2PrimOptions& opt);         \
  /* per-zone max characteristic speed (CFL bound) */                          \
  void max_speed_n(std::size_t n, const double* rho, const double* vx,         \
                   const double* vy, const double* vz, const double* p,        \
                   double* speed, double gamma, int ndim);                     \
  /* y[i] = a*x[i] + b*y[i] — the RK stage-combination kernel */               \
  void axpby_n(std::size_t n, double a, const double* x, double b, double* y); \
  /* y[i] = (a*x[i] + b*y[i]) + c*z[i] — the full three-term RK stage */       \
  void rk_combine_n(std::size_t n, double a, const double* x, double b,        \
                    double* y, double c, const double* z);                     \
  /* physical flux along axis over n zones (prim+cons in, flux out) */         \
  void flux_n(std::size_t n, int axis, const double* rho, const double* vx,    \
              const double* vy, const double* vz, const double* p,             \
              const double* d, const double* sx, const double* sy,             \
              const double* sz, const double* tau, double* fd, double* fsx,    \
              double* fsy, double* fsz, double* ftau);

namespace scalar {
RSHC_DECLARE_KERNELS
}
namespace simd {
RSHC_DECLARE_KERNELS
}
#undef RSHC_DECLARE_KERNELS
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace rshc::srhd::kernels
