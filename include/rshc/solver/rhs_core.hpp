#pragma once
// Shared batched solver cores (DESIGN.md systems #4/#12): the slab-wise
// rhs, RK update / con2prim, CFL scan, and post-step bodies extracted from
// FvSolver so the host pipeline and the device-offload pipeline execute
// the *same compiled code*. The functions take raw SoA slab pointers plus
// a BlockShape instead of mesh types, because the device path runs them
// against flat arena buffers that are not FieldArrays. They call the
// vectorized kernels::simd variants of the batched physics kernels.
//
// Every template is defined in src/solver/rhs_core.cpp and explicitly
// instantiated there, compiled under the kernel-TU recipe
// (-ffp-contract=off, no reassociation): one machine-code copy per
// physics, shared by both pipelines — bitwise identity by construction.
// test_rhs_pipeline and test_device_pipeline pin both against the
// per-pencil oracle in tests/support/pencil_reference.hpp, which is built
// from the per-interface and per-zone physics functions.

#include <array>
#include <cstddef>
#include <vector>

#include "rshc/common/aligned.hpp"
#include "rshc/mesh/block.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/physics.hpp"

namespace rshc::solver::core {

/// Pencils per batched tile. Bounds the face/flux staging working set to
/// kTileRows * max_extent doubles per variable (a few hundred KiB, cache
/// resident) independent of block size, and is the plane stride of the
/// y/z tile layout (see BatchScratch).
inline constexpr int kTileRows = 32;

/// Geometry of one ghosted block, decoupled from mesh::Block. Axis order
/// is (x, y, z); cell_index matches FieldArray's (k, j, i) row-major
/// layout, so a flat device arena indexed through a BlockShape aliases a
/// host FieldArray exactly.
struct BlockShape {
  int ndim = 1;
  std::array<int, 3> total = {1, 1, 1};  ///< ghosted extents per axis
  std::array<int, 3> begin = {0, 0, 0};  ///< first interior index per axis
  std::array<int, 3> end = {1, 1, 1};    ///< one past last interior
  std::array<double, 3> inv_dx = {0.0, 0.0, 0.0};

  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(total[0]) *
           static_cast<std::size_t>(total[1]) *
           static_cast<std::size_t>(total[2]);
  }
  [[nodiscard]] std::size_t cell_index(int k, int j, int i) const {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(total[1]) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(total[0]) +
           static_cast<std::size_t>(i);
  }
  [[nodiscard]] int max_extent() const {
    return std::max({total[0], total[1], total[2]});
  }
};

[[nodiscard]] BlockShape shape_of(const mesh::Block& blk,
                                  const mesh::Grid& grid);

/// Batched tile work arrays, one per primitive (face states) or
/// conserved (fluxes) variable, each kTileRows * max_extent doubles. A
/// tile is up to kTileRows pencils along one axis; entry (t, f) is pencil
/// t at pencil index f:
///   - x axis, row-major [t][f] at t * total[0] + f: each pencil is a
///     contiguous slab row, reconstructed along the row;
///   - y/z axes, plane-major [f][t] at f * kTileRows + t: the pencils are
///     adjacent x cells of the slab, reconstructed across the pencils
///     (one SIMD lane each) straight from the slab rows, and every
///     interface plane f is a unit-stride row of the tile's lanes.
/// The arrays are unfilled_doubles (aligned.hpp): the rhs writes every
/// entry it reads, so setup touches none of their pages, and checked
/// builds poison them with quiet NaN.
template <typename Physics>
struct BatchScratch {
  std::array<aligned_vector<double>, Physics::kNumPrim> tql;
  std::array<aligned_vector<double>, Physics::kNumPrim> tqr;
  std::array<aligned_vector<double>, Physics::kNumCons> tfl;

  explicit BatchScratch(int max_extent) {
    const std::size_t tlen = static_cast<std::size_t>(kTileRows) *
                             static_cast<std::size_t>(max_extent);
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      tql[v] = unfilled_doubles(tlen);
      tqr[v] = unfilled_doubles(tlen);
    }
    for (auto& a : tfl) a = unfilled_doubles(tlen);
  }
};

/// Batched rhs over a zone box: accumulate flux differences for every
/// active axis, only for zones in the box [lo, hi) (interior coordinates;
/// lo/hi must lie within [sh.begin, sh.end]). `w` / `du` are flat SoA
/// bases laid out per `sh`; `block_id` is zone provenance for the
/// checkers. Reconstruction runs on sub-pencil windows padded by the
/// stencil radius, so every zone in the box receives *bitwise* the
/// per-axis contributions the full-block call would give it — callers may
/// partition the interior into disjoint boxes (the overlapped distributed
/// step's interior/boundary split) and invoke this per box in any order.
/// `zero_du` zeroes the whole du array first (exactly one box of a
/// partition must pass true, before any other box runs). The full-block
/// rhs is the call with [sh.begin, sh.end) and zero_du = true.
template <typename Physics>
void rhs_batched_range(const BlockShape& sh,
                       const typename Physics::Context& ctx,
                       recon::Method method, const double* w,
                       double* du, BatchScratch<Physics>& s, int block_id,
                       const std::array<int, 3>& lo,
                       const std::array<int, 3>& hi, bool zero_du);

/// Batched RK stage: u = (ca*u0 + cb*u) + cdt*du over the interior, then
/// primitive recovery u -> w through the batched con2prim kernels.
template <typename Physics>
void update_batched(const BlockShape& sh, const typename Physics::Context& ctx,
                    double ca, double cb, double cdt, const double* u0,
                    const double* du, double* u, double* w, C2PStats& stats,
                    int block_id);

/// Interior max signal speed (slab-wise scan; `speed` is resized to one
/// row). Seeded with 1e-30 like FvSolver::compute_dt.
template <typename Physics>
[[nodiscard]] double max_wave_speed_batched(
    const BlockShape& sh, const typename Physics::Context& ctx,
    const double* w, std::vector<double>& speed);

/// The per-step hook over whole (ghosted) arrays, the one GLM damping
/// body: the last stage's compute node applies it on the host and the
/// device alike. Damps the cons and prim psi slabs for SRMHD; no-op for
/// SRHD.
template <typename Physics>
void post_step_slabs(const BlockShape& sh,
                     const typename Physics::Context& ctx, double* u,
                     double* w, double dt, double dx_min);

template <>
void post_step_slabs<SrmhdPhysics>(const BlockShape& sh,
                                   const SrmhdPhysics::Context& ctx, double* u,
                                   double* w, double dt, double dx_min);

}  // namespace rshc::solver::core
