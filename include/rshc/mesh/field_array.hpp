#pragma once
// SoA multi-variable field over one block (ghosts included): element
// (v, k, j, i) lives at ((v*nk + k)*nj + j)*ni + i, so each variable is a
// contiguous, 64-byte-aligned slab. Batched kernels walk these slabs
// directly; device staging copies them wholesale via flat() (full-array
// residency upload) or through the BoxSpec pack/unpack views below
// (halo-sized sub-box transfers). The raw-pointer overloads exist so the
// same copy code runs against a flat device arena, which has this layout
// but is not a FieldArray.

#include <algorithm>
#include <cstddef>
#include <span>

#include "rshc/common/aligned.hpp"
#include "rshc/common/error.hpp"

namespace rshc::mesh {

/// Rectangular sub-box of a ghost-inclusive (nk, nj, ni) index space; the
/// unit of staging transfer (a halo rim, a ghost shell face, or the whole
/// array).
struct BoxSpec {
  int k0 = 0, j0 = 0, i0 = 0;  ///< origin (local, ghost-offset indices)
  int nk = 1, nj = 1, ni = 1;  ///< box extents
  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(nk) * static_cast<std::size_t>(nj) *
           static_cast<std::size_t>(ni);
  }
};

/// Gather `box` for all `nvar` variables of an SoA array with per-variable
/// extents (ank, anj, ani) into `out`, packed v-major then (k, j, i).
/// `out` must hold nvar * box.cells() doubles.
inline void pack_box(const double* data, int nvar, int ank, int anj, int ani,
                     const BoxSpec& box, double* out) {
  const std::size_t cells =
      static_cast<std::size_t>(ank) * static_cast<std::size_t>(anj) *
      static_cast<std::size_t>(ani);
  for (int v = 0; v < nvar; ++v) {
    const double* slab = data + static_cast<std::size_t>(v) * cells;
    for (int k = 0; k < box.nk; ++k) {
      for (int j = 0; j < box.nj; ++j) {
        const double* row =
            slab + (static_cast<std::size_t>(box.k0 + k) *
                        static_cast<std::size_t>(anj) +
                    static_cast<std::size_t>(box.j0 + j)) *
                       static_cast<std::size_t>(ani) +
            static_cast<std::size_t>(box.i0);
        for (int i = 0; i < box.ni; ++i) *out++ = row[i];
      }
    }
  }
}

/// Scatter `in` (layout produced by pack_box) back into `box` of the array.
inline void unpack_box(double* data, int nvar, int ank, int anj, int ani,
                       const BoxSpec& box, const double* in) {
  const std::size_t cells =
      static_cast<std::size_t>(ank) * static_cast<std::size_t>(anj) *
      static_cast<std::size_t>(ani);
  for (int v = 0; v < nvar; ++v) {
    double* slab = data + static_cast<std::size_t>(v) * cells;
    for (int k = 0; k < box.nk; ++k) {
      for (int j = 0; j < box.nj; ++j) {
        double* row =
            slab + (static_cast<std::size_t>(box.k0 + k) *
                        static_cast<std::size_t>(anj) +
                    static_cast<std::size_t>(box.j0 + j)) *
                       static_cast<std::size_t>(ani) +
            static_cast<std::size_t>(box.i0);
        for (int i = 0; i < box.ni; ++i) row[i] = *in++;
      }
    }
  }
}

class FieldArray {
 public:
  FieldArray() = default;
  FieldArray(int nvar, int nk, int nj, int ni)
      : nvar_(nvar), nk_(nk), nj_(nj), ni_(ni),
        data_(static_cast<std::size_t>(nvar) * static_cast<std::size_t>(nk) *
                  static_cast<std::size_t>(nj) * static_cast<std::size_t>(ni),
              0.0) {
    RSHC_REQUIRE(nvar >= 1 && nk >= 1 && nj >= 1 && ni >= 1,
                 "field array extents must be positive");
  }
  /// Same extents, storage left unwritten (unfilled_doubles): for arrays
  /// the owner always writes before it reads.
  struct NoFill {};
  FieldArray(int nvar, int nk, int nj, int ni, NoFill)
      : nvar_(nvar), nk_(nk), nj_(nj), ni_(ni),
        data_(unfilled_doubles(static_cast<std::size_t>(nvar) *
                               static_cast<std::size_t>(nk) *
                               static_cast<std::size_t>(nj) *
                               static_cast<std::size_t>(ni))) {
    RSHC_REQUIRE(nvar >= 1 && nk >= 1 && nj >= 1 && ni >= 1,
                 "field array extents must be positive");
  }

  [[nodiscard]] int nvar() const { return nvar_; }
  [[nodiscard]] int nk() const { return nk_; }
  [[nodiscard]] int nj() const { return nj_; }
  [[nodiscard]] int ni() const { return ni_; }
  [[nodiscard]] std::size_t cells_per_var() const {
    return static_cast<std::size_t>(nk_) * static_cast<std::size_t>(nj_) *
           static_cast<std::size_t>(ni_);
  }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& operator()(int v, int k, int j, int i) {
    return data_[index(v, k, j, i)];
  }
  [[nodiscard]] double operator()(int v, int k, int j, int i) const {
    return data_[index(v, k, j, i)];
  }

  /// Contiguous slab of one variable (length cells_per_var()).
  [[nodiscard]] std::span<double> var(int v) {
    return {data_.data() + static_cast<std::size_t>(v) * cells_per_var(),
            cells_per_var()};
  }
  [[nodiscard]] std::span<const double> var(int v) const {
    return {data_.data() + static_cast<std::size_t>(v) * cells_per_var(),
            cells_per_var()};
  }

  [[nodiscard]] std::span<double> flat() { return data_; }
  [[nodiscard]] std::span<const double> flat() const { return data_; }

  void fill(double value) { std::fill(data_.begin(), data_.end(), value); }

  /// Staging view: gather `box` across all variables into `out`
  /// (pack_box layout; out.size() == nvar() * box.cells()).
  void pack_box(const BoxSpec& box, std::span<double> out) const {
    require_box(box, out.size());
    mesh::pack_box(data_.data(), nvar_, nk_, nj_, ni_, box, out.data());
  }

  /// Staging view: scatter `in` (pack_box layout) back into `box`.
  void unpack_box(const BoxSpec& box, std::span<const double> in) {
    require_box(box, in.size());
    mesh::unpack_box(data_.data(), nvar_, nk_, nj_, ni_, box, in.data());
  }

  /// Linear cell index (k, j, i) within one variable slab.
  [[nodiscard]] std::size_t cell_index(int k, int j, int i) const {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(nj_) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(ni_) +
           static_cast<std::size_t>(i);
  }

 private:
  void require_box(const BoxSpec& box, std::size_t staged) const {
    RSHC_REQUIRE(box.nk >= 1 && box.nj >= 1 && box.ni >= 1 && box.k0 >= 0 &&
                     box.j0 >= 0 && box.i0 >= 0 && box.k0 + box.nk <= nk_ &&
                     box.j0 + box.nj <= nj_ && box.i0 + box.ni <= ni_,
                 "staging box exceeds field extents");
    RSHC_REQUIRE(staged == static_cast<std::size_t>(nvar_) * box.cells(),
                 "staging buffer size mismatch");
  }

  [[nodiscard]] std::size_t index(int v, int k, int j, int i) const {
    RSHC_ASSERT(v >= 0 && v < nvar_ && k >= 0 && k < nk_ && j >= 0 &&
                j < nj_ && i >= 0 && i < ni_);
    return static_cast<std::size_t>(v) * cells_per_var() + cell_index(k, j, i);
  }

  int nvar_ = 0;
  int nk_ = 0;
  int nj_ = 0;
  int ni_ = 0;
  rshc::aligned_vector<double> data_;
};

}  // namespace rshc::mesh
