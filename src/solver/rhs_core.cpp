#include "rshc/solver/rhs_core.hpp"

#include <algorithm>

#include "rshc/check/check.hpp"
#include "rshc/obs/obs.hpp"

namespace rshc::solver::core {

BlockShape shape_of(const mesh::Block& blk, const mesh::Grid& grid) {
  BlockShape sh;
  sh.ndim = grid.ndim();
  for (int a = 0; a < 3; ++a) {
    sh.total[static_cast<std::size_t>(a)] = blk.total(a);
    sh.begin[static_cast<std::size_t>(a)] = blk.begin(a);
    sh.end[static_cast<std::size_t>(a)] = blk.end(a);
  }
  for (int a = 0; a < grid.ndim(); ++a) {
    sh.inv_dx[static_cast<std::size_t>(a)] = 1.0 / grid.dx(a);
  }
  return sh;
}

// Batched rhs: the per-pencil reference arithmetic (the oracle in
// tests/support/pencil_reference.hpp), reorganized for data movement. Per
// axis, pencils are processed in tiles of up to kTileRows pencils, laid out
// as BatchScratch describes. The x axis reconstructs along the contiguous
// slab rows; the y/z axes reconstruct across the tile's pencils, one SIMD
// lane per pencil, straight from the slab rows (no gather). Either way the
// method is dispatched once per tile and variable, and every cell runs the
// same per-cell body. The batched face kernels then run once per pencil
// (x) or once per interface plane over the tile's lanes (y/z), for every
// Riemann solver and every build, and the du accumulation preserves the
// reference's per-cell add order (+left interface first, then -right) and
// expression shapes — bitwise identical. This single compiled
// instantiation also serves as the device kernel body, so the device
// pipeline inherits the same bits by construction.
template <typename Physics>
void rhs_batched_range(const BlockShape& sh,
                       const typename Physics::Context& ctx,
                       recon::Method method, const double* w, double* du,
                       BatchScratch<Physics>& s,
                       [[maybe_unused]] int block_id,
                       const std::array<int, 3>& lo,
                       const std::array<int, 3>& hi, bool zero_du) {
  constexpr auto K = static_cast<std::size_t>(kTileRows);
  const std::size_t cells = sh.cells();
  if (zero_du) {
    std::fill(du, du + static_cast<std::size_t>(Physics::kNumCons) * cells,
              0.0);
  }
  for (int a = 0; a < 3; ++a) {
    if (lo[static_cast<std::size_t>(a)] >= hi[static_cast<std::size_t>(a)]) {
      return;  // empty box: zeroing (if requested) is all there is to do
    }
  }

  auto wvar = [&](int v) {
    return w + static_cast<std::size_t>(v) * cells;
  };
  auto dvar = [&](int v) {
    return du + static_cast<std::size_t>(v) * cells;
  };

  for (int axis = 0; axis < sh.ndim; ++axis) {
    const double inv_dx = sh.inv_dx[static_cast<std::size_t>(axis)];
    const double neg_inv_dx = -inv_dx;
    const bool along = axis == 0;  // x: along rows; y/z: across pencils
    const int n = sh.total[static_cast<std::size_t>(axis)];
    const auto un = static_cast<std::size_t>(n);
    int a1 = -1;
    int a2 = -1;
    for (int a = 0; a < 3; ++a) {
      if (a == axis) continue;
      (a1 < 0 ? a1 : a2) = a;
    }
    const int fb = lo[static_cast<std::size_t>(axis)];
    const int fe = hi[static_cast<std::size_t>(axis)];
    const int b1 = lo[static_cast<std::size_t>(a1)];
    const int e1 = hi[static_cast<std::size_t>(a1)];
    const int b2 = lo[static_cast<std::size_t>(a2)];
    const int e2 = hi[static_cast<std::size_t>(a2)];
    // Reconstruction window: interfaces [fb-1, fe-1] read face states of
    // cells [fb-1, fe], and a cell's reconstruction reads `radius` cells
    // each side. The ghost width (== sh.begin on an active axis) is
    // radius + 1, so the window always fits inside [0, n] and every cell
    // in [fb-1, fe] sits >= radius from the window edges — its
    // reconstructed faces are bitwise those of the full-pencil call.
    const int radius = sh.begin[static_cast<std::size_t>(axis)] - 1;
    const int ws = fb - 1 - radius;
    const int we = fe + 1 + radius;
    const auto uwin = static_cast<std::size_t>(we - ws);
    const auto nif = static_cast<std::size_t>(fe - fb + 1);
    // Tile entry of pencil t at pencil index f (BatchScratch layout).
    auto at = [&](int t, int f) {
      return along ? static_cast<std::size_t>(t) * un +
                         static_cast<std::size_t>(f)
                   : static_cast<std::size_t>(f) * K +
                         static_cast<std::size_t>(t);
    };
    // Slab offset of (pencil index f, first pencil t10) and the slab
    // distance between consecutive f on the strided axes.
    auto cell = [&](int t2, int t10, int f) {
      return axis == 0   ? sh.cell_index(t2, t10, f)
             : axis == 1 ? sh.cell_index(t2, f, t10)
                         : sh.cell_index(f, t2, t10);
    };
    const std::size_t pstride =
        axis == 1 ? static_cast<std::size_t>(sh.total[0])
                  : static_cast<std::size_t>(sh.total[0]) *
                        static_cast<std::size_t>(sh.total[1]);

    for (int t2 = b2; t2 < e2; ++t2) {
      for (int t10 = b1; t10 < e1; t10 += kTileRows) {
        const int rows = std::min(kTileRows, e1 - t10);
        const auto urows = static_cast<std::size_t>(rows);

        // Reconstruct one tile per variable. Faces land at their absolute
        // pencil index in the tile, so the staging below indexes
        // identically for any window.
        for (int v = 0; v < Physics::kNumPrim; ++v) {
          const double* src = wvar(v) + cell(t2, t10, ws);
          double* ql = s.tql[v].data() + at(0, ws);
          double* qr = s.tqr[v].data() + at(0, ws);
          if (along) {
            recon::reconstruct_rows(method, urows, uwin, src, un, ql, qr, un);
          } else {
            recon::reconstruct_lanes(method, urows, uwin, src, pstride, ql,
                                     qr, K);
          }
        }

        // Limiter + Riemann solve + flux for the tile's interfaces, for
        // every solver and every build: the batched face kernels
        // (riemann/kernels.hpp) take unit-stride face-state lines, one call
        // per pencil on x (nif interfaces), one per interface plane on y/z
        // (rows lanes). Checked builds then check each line, adding code
        // without changing which code runs.
        const std::size_t nlines = along ? urows : nif;
        const std::size_t len = along ? nif : urows;
        const double* wlp[Physics::kNumPrim];
        const double* wrp[Physics::kNumPrim];
        double* flp[Physics::kNumCons];
        for (std::size_t line = 0; line < nlines; ++line) {
          const auto l = static_cast<int>(line);
          const std::size_t off = along ? at(l, fb - 1) : at(0, fb - 1 + l);
          const std::size_t next = along ? off + 1 : off + K;
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            wlp[v] = s.tqr[v].data() + off;
            wrp[v] = s.tql[v].data() + next;
          }
          for (int v = 0; v < Physics::kNumCons; ++v) {
            flp[v] = s.tfl[v].data() + off;
          }
          Physics::interface_flux_n(true, len, axis, wlp, wrp, flp, ctx);
#if RSHC_CHECKS_ENABLED
          // Limited copies of both face states must be physical and the
          // flux finite; interface f+1/2 of pencil t reports zone
          // (idx[axis] = f, idx[a1] = t10 + t, idx[a2] = t2).
          for (std::size_t i = 0; i < len; ++i) {
            const auto ui = static_cast<int>(i);
            int idx[3];
            idx[axis] = fb - 1 + (along ? ui : l);
            idx[a1] = t10 + (along ? l : ui);
            idx[a2] = t2;
            double comp[Physics::kNumPrim];
            for (int v = 0; v < Physics::kNumPrim; ++v) comp[v] = wlp[v][i];
            auto wl = Physics::prim_from_components(comp);
            for (int v = 0; v < Physics::kNumPrim; ++v) comp[v] = wrp[v][i];
            auto wr = Physics::prim_from_components(comp);
            Physics::limit_face_state(wl, ctx);
            Physics::limit_face_state(wr, ctx);
            RSHC_CHECK_PRIM("flux", wl, block_id, idx[0], idx[1], idx[2]);
            RSHC_CHECK_PRIM("flux", wr, block_id, idx[0], idx[1], idx[2]);
            double fc[Physics::kNumCons];
            for (int v = 0; v < Physics::kNumCons; ++v) fc[v] = flp[v][i];
            if (check::violates_finite(fc) != nullptr) {
              check::fail("flux", "non-finite flux", __FILE__, __LINE__,
                          {block_id, idx[0], idx[1], idx[2]});
            }
          }
#endif
        }

        // Accumulate flux differences. Each interior cell takes + its left
        // interface flux then - its right one in a single pass; on every
        // axis the inner loop reads the fluxes unit-stride.
        if (along) {
          for (int t = 0; t < rows; ++t) {
            for (int v = 0; v < Physics::kNumCons; ++v) {
              double* d = dvar(v) + sh.cell_index(t2, t10 + t, 0);
              const double* fl = s.tfl[v].data() + at(t, 0);
              for (int f = fb; f < fe; ++f) {
                d[f] = (d[f] + inv_dx * fl[f - 1]) + neg_inv_dx * fl[f];
              }
            }
          }
        } else {
          // For a fixed pencil index f the du addresses across the tile's
          // pencils are unit-stride, like the plane-major fluxes.
          for (int v = 0; v < Physics::kNumCons; ++v) {
            for (int f = fb; f < fe; ++f) {
              double* d = dvar(v) + cell(t2, t10, f);
              const double* left = s.tfl[v].data() + at(0, f - 1);
              const double* right = s.tfl[v].data() + at(0, f);
              for (int t = 0; t < rows; ++t) {
                d[t] = (d[t] + inv_dx * left[t]) + neg_inv_dx * right[t];
              }
            }
          }
        }
      }
    }
  }
}

// Batched update: the RK convex combination runs as fused axpby-style span
// loops over contiguous interior rows of each variable slab, and primitive
// recovery goes through the batched cons_to_prim_n kernels. Expression
// shape ((a*u0 + b*u) + (c*dt)*du, left-associated) and the per-zone
// Newton solve match the per-pencil reference exactly — bitwise identical.
template <typename Physics>
void update_batched(const BlockShape& sh, const typename Physics::Context& ctx,
                    double ca, double cb, double cdt, const double* u0,
                    const double* du, double* u, double* w, C2PStats& stats,
                    [[maybe_unused]] int block_id) {
  const std::size_t cells = sh.cells();
  const int ib = sh.begin[0];
  const auto nx = static_cast<std::size_t>(sh.end[0] - sh.begin[0]);
  {
    RSHC_OBS_PHASE("solver.phase.update", "solver", block_id);
    for (int v = 0; v < Physics::kNumCons; ++v) {
      const std::size_t voff = static_cast<std::size_t>(v) * cells;
      for (int k = sh.begin[2]; k < sh.end[2]; ++k) {
        for (int j = sh.begin[1]; j < sh.end[1]; ++j) {
          const std::size_t base = sh.cell_index(k, j, ib);
          rk_combine_n(true, nx, ca, u0 + voff + base, cb, u + voff + base,
                       cdt, du + voff + base);
        }
      }
    }
  }
  {
    RSHC_OBS_PHASE("solver.phase.c2p", "solver", block_id);
    const double* uptr[Physics::kNumCons];
    double* wptr[Physics::kNumPrim];
    for (int k = sh.begin[2]; k < sh.end[2]; ++k) {
      for (int j = sh.begin[1]; j < sh.end[1]; ++j) {
        const std::size_t base = sh.cell_index(k, j, ib);
        for (int v = 0; v < Physics::kNumCons; ++v) {
          uptr[v] = u + static_cast<std::size_t>(v) * cells + base;
        }
        for (int v = 0; v < Physics::kNumPrim; ++v) {
          wptr[v] = w + static_cast<std::size_t>(v) * cells + base;
        }
        Physics::cons_to_prim_n(true, nx, uptr, wptr, ctx, stats);
#if RSHC_CHECKS_ENABLED
        // Nothing unphysical may leave c2p, even when the atmosphere
        // fallback healed the zone. The kernels leave this check to the
        // row, which knows every zone's block and coordinates.
        for (std::size_t i = 0; i < nx; ++i) {
          double comp[Physics::kNumPrim];
          for (int v = 0; v < Physics::kNumPrim; ++v) comp[v] = wptr[v][i];
          const auto p = Physics::prim_from_components(comp);
          RSHC_CHECK_PRIM("c2p", p, block_id, ib + static_cast<int>(i), j, k);
        }
#endif
      }
    }
  }
}

template <typename Physics>
double max_wave_speed_batched(const BlockShape& sh,
                              const typename Physics::Context& ctx,
                              const double* w, std::vector<double>& speed) {
  double vmax = 1e-30;
  const std::size_t cells = sh.cells();
  const int ib = sh.begin[0];
  const auto nx = static_cast<std::size_t>(sh.end[0] - sh.begin[0]);
  const double* wptr[Physics::kNumPrim];
  speed.resize(nx);
  for (int k = sh.begin[2]; k < sh.end[2]; ++k) {
    for (int j = sh.begin[1]; j < sh.end[1]; ++j) {
      const std::size_t base = sh.cell_index(k, j, ib);
      for (int v = 0; v < Physics::kNumPrim; ++v) {
        wptr[v] = w + static_cast<std::size_t>(v) * cells + base;
      }
      Physics::max_speed_n(true, nx, wptr, speed.data(), ctx, sh.ndim);
      for (std::size_t i = 0; i < nx; ++i) {
        vmax = std::max(vmax, speed[i]);
      }
    }
  }
  return vmax;
}

template <typename Physics>
void post_step_slabs(const BlockShape&, const typename Physics::Context&,
                     double*, double*, double, double) {}

// GLM psi damping over the whole ghosted psi slabs.
template <>
void post_step_slabs<SrmhdPhysics>(const BlockShape& sh,
                                   const SrmhdPhysics::Context& ctx, double* u,
                                   double* w, double dt, double dx_min) {
  const double factor = srmhd::glm_damping_factor(ctx.glm, dt, dx_min);
  if (factor >= 1.0) return;
  const std::size_t cells = sh.cells();
  double* up = u + static_cast<std::size_t>(srmhd::kPsi) * cells;
  double* wp = w + static_cast<std::size_t>(srmhd::kPsi) * cells;
  for (std::size_t n = 0; n < cells; ++n) up[n] *= factor;
  for (std::size_t n = 0; n < cells; ++n) wp[n] *= factor;
}

template void rhs_batched_range<SrhdPhysics>(
    const BlockShape&, const SrhdPhysics::Context&, recon::Method,
    const double*, double*, BatchScratch<SrhdPhysics>&, int,
    const std::array<int, 3>&, const std::array<int, 3>&, bool);
template void rhs_batched_range<SrmhdPhysics>(
    const BlockShape&, const SrmhdPhysics::Context&, recon::Method,
    const double*, double*, BatchScratch<SrmhdPhysics>&, int,
    const std::array<int, 3>&, const std::array<int, 3>&, bool);
template void update_batched<SrhdPhysics>(const BlockShape&,
                                          const SrhdPhysics::Context&, double,
                                          double, double, const double*,
                                          const double*, double*, double*,
                                          C2PStats&, int);
template void update_batched<SrmhdPhysics>(const BlockShape&,
                                           const SrmhdPhysics::Context&,
                                           double, double, double,
                                           const double*, const double*,
                                           double*, double*, C2PStats&, int);
template double max_wave_speed_batched<SrhdPhysics>(
    const BlockShape&, const SrhdPhysics::Context&, const double*,
    std::vector<double>&);
template double max_wave_speed_batched<SrmhdPhysics>(
    const BlockShape&, const SrmhdPhysics::Context&, const double*,
    std::vector<double>&);
template void post_step_slabs<SrhdPhysics>(const BlockShape&,
                                           const SrhdPhysics::Context&,
                                           double*, double*, double, double);

}  // namespace rshc::solver::core
