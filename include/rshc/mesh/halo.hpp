#pragma once
// Ghost-zone filling for the primitive fields.
//
// Only face halos are exchanged (no corners): reconstruction stencils are
// axis-aligned pencils, so corner ghosts are never read. This keeps the
// exchanges of different axes independent — exactly what the futurized
// dataflow stepping exploits. Transverse ranges are therefore restricted
// to the interior.
//
// Two paths share the same pack/unpack layout:
//   copy_halo    — direct shared-memory copy between sibling blocks
//   pack_face /
//   unpack_ghost — staging through a contiguous buffer for the
//                  message-passing (distributed) driver.

#include <array>
#include <span>
#include <vector>

#include "rshc/mesh/block.hpp"

namespace rshc::mesh {

/// Number of doubles in one face halo message of `b` across `axis`
/// (all prim variables × ng layers × interior transverse extent).
[[nodiscard]] std::size_t halo_buffer_size(const Block& b, int axis);

/// Persistent per-(axis, side) staging buffers for the message-passing
/// exchange. One send and one recv buffer per face, sized once from the
/// block, so (a) the rank hot path stops reallocating per exchange and
/// (b) all six faces can be in flight simultaneously — the prerequisite
/// for posting every irecv/isend up front and overlapping the waits with
/// interior compute.
class HaloBufferSet {
 public:
  HaloBufferSet() = default;

  /// Size every face buffer for `b`. Idempotent; cheap after the first
  /// call (vectors never shrink, so repeated calls are no-ops).
  void ensure_sized(const Block& b) {
    if (sized_) return;
    for (int axis = 0; axis < 3; ++axis) {
      const std::size_t n = halo_buffer_size(b, axis);
      for (int side = 0; side < 2; ++side) {
        send_[slot(axis, side)].resize(n);
        recv_[slot(axis, side)].resize(n);
      }
    }
    sized_ = true;
  }

  [[nodiscard]] std::span<double> send(int axis, int side) {
    return send_[slot(axis, side)];
  }
  [[nodiscard]] std::span<double> recv(int axis, int side) {
    return recv_[slot(axis, side)];
  }

 private:
  [[nodiscard]] static std::size_t slot(int axis, int side) {
    return static_cast<std::size_t>(axis * 2 + side);
  }

  std::array<std::vector<double>, 6> send_;
  std::array<std::vector<double>, 6> recv_;
  bool sized_ = false;
};

/// Pack the ng interior layers of `src` adjacent to its (axis, side) face
/// (side 0 = low, 1 = high) into `buf` (size halo_buffer_size).
void pack_face(const Block& src, int axis, int side, std::span<double> buf);

/// Unpack `buf` into the ghost layers of `dst` at its (axis, side) face.
void unpack_ghost(Block& dst, int axis, int side,
                  std::span<const double> buf);

/// Fill dst's ghosts at face (axis, side) from the adjacent interior
/// layers of `src` (the neighbour across that face). Blocks must agree on
/// transverse extents.
void copy_halo(Block& dst, const Block& src, int axis, int side);

}  // namespace rshc::mesh
