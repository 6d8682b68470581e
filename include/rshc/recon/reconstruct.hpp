#pragma once
// High-resolution reconstruction on 1D pencils (DESIGN.md system #8).
// Cell-centric convention: for each cell i the scheme produces the values
// the solution takes at the cell's two faces,
//   ql[i] — at face i-1/2 approached from inside cell i,
//   qr[i] — at face i+1/2 approached from inside cell i,
// so the Riemann problem at interface i+1/2 is (left=qr[i], right=ql[i+1]).
// Schemes (in increasing formal order): piecewise constant, piecewise
// linear with minmod / MC / van Leer limiters, PPM (Colella & Woodward
// 1984), and WENO5 (Jiang & Shu 1996).

#include <cstddef>
#include <span>
#include <string_view>

namespace rshc::recon {

enum class Method {
  kPCM,
  kPLMMinmod,
  kPLMMC,
  kPLMVanLeer,
  kPPM,
  kWENO5,
};

/// Stencil radius: cells needed on each side of cell i.
[[nodiscard]] int stencil_radius(Method m);

/// Ghost-zone requirement for a solver using this method
/// (= stencil_radius + 1: the boundary interface also needs the ghost
/// cell's own reconstruction).
[[nodiscard]] int ghost_width(Method m);

[[nodiscard]] std::string_view method_name(Method m);
/// Parse "pcm", "plm-minmod", "plm-mc", "plm-vanleer", "ppm", "weno5".
[[nodiscard]] Method parse_method(std::string_view name);

/// Reconstruct one variable along a pencil. ql/qr must match q in size;
/// entries are written for i in [stencil_radius, n - stencil_radius).
void reconstruct(Method m, std::span<const double> q, std::span<double> ql,
                 std::span<double> qr);

/// Reconstruct `nrows` independent pencils of length `n` in one call,
/// along each row (one plane of a block, or the x pencils of a tile).
/// Pencil r reads q + r*qstride and writes ql/qr + r*face_stride; strides
/// are in elements and rows may alias nothing. The method is dispatched
/// once for the whole batch.
void reconstruct_rows(Method m, std::size_t nrows, std::size_t n,
                      const double* q, std::size_t qstride, double* ql,
                      double* qr, std::size_t face_stride);

/// Reconstruct `lanes` side-by-side pencils of length `n` across the
/// pencils: cell i of pencil t is q[i*qstride + t] and its faces land at
/// ql/qr[i*face_stride + t]. Each pencil is one SIMD lane, so strided
/// pencils (the y and z axes of an SoA slab) are read in place without a
/// gather. Bitwise the same faces as reconstruct_rows on each pencil.
void reconstruct_lanes(Method m, std::size_t lanes, std::size_t n,
                       const double* q, std::size_t qstride, double* ql,
                       double* qr, std::size_t face_stride);

/// Formal order of accuracy on smooth solutions (for convergence tables).
[[nodiscard]] int formal_order(Method m);

}  // namespace rshc::recon
