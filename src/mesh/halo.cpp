#include "rshc/mesh/halo.hpp"

#include "rshc/check/check.hpp"

namespace rshc::mesh {
namespace {

/// Iterate over (v, layer, transverse...) of a face region, calling
/// fn(v, k, j, i) with local indices. `first_layer` is the starting local
/// index along `axis`; ng layers are visited. Transverse axes span the
/// interior only.
template <typename Fn>
void for_each_face_cell(const Block& b, int axis, int first_layer, Fn&& fn) {
  const int ng = b.ghost(axis);
  const int nvar = b.prim().nvar();
  int lo[3];
  int hi[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = b.begin(a);
    hi[a] = b.end(a);
  }
  lo[axis] = first_layer;
  hi[axis] = first_layer + ng;
  for (int v = 0; v < nvar; ++v) {
    for (int k = lo[2]; k < hi[2]; ++k) {
      for (int j = lo[1]; j < hi[1]; ++j) {
        for (int i = lo[0]; i < hi[0]; ++i) {
          fn(v, k, j, i);
        }
      }
    }
  }
}

}  // namespace

std::size_t halo_buffer_size(const Block& b, int axis) {
  std::size_t n = static_cast<std::size_t>(b.prim().nvar()) *
                  static_cast<std::size_t>(b.ghost(axis));
  for (int a = 0; a < 3; ++a) {
    if (a == axis) continue;
    n *= static_cast<std::size_t>(b.interior(a));
  }
  return n;
}

void pack_face(const Block& src, int axis, int side, std::span<double> buf) {
  RSHC_REQUIRE(buf.size() == halo_buffer_size(src, axis),
               "halo pack buffer size mismatch");
  // Low face: first ng interior layers; high face: last ng interior layers.
  const int first =
      side == 0 ? src.begin(axis) : src.end(axis) - src.ghost(axis);
  std::size_t idx = 0;
  const auto& w = src.prim();
  for_each_face_cell(src, axis, first, [&](int v, int k, int j, int i) {
    buf[idx++] = w(v, k, j, i);
  });
  // A NaN packed here crosses the rank boundary and corrupts a neighbour
  // that did nothing wrong — flag it on the sender where the bad zone is.
  RSHC_CHECK_FINITE_SPAN("halo", buf,
                         "packed halo face contains non-finite values");
}

void unpack_ghost(Block& dst, int axis, int side,
                  std::span<const double> buf) {
  RSHC_REQUIRE(buf.size() == halo_buffer_size(dst, axis),
               "halo unpack buffer size mismatch");
  RSHC_CHECK_FINITE_SPAN("halo", buf,
                         "received halo face contains non-finite values");
  // Low-side ghosts start at 0; high-side ghosts start at end(axis).
  const int first = side == 0 ? 0 : dst.end(axis);
  std::size_t idx = 0;
  auto& w = dst.prim();
  for_each_face_cell(dst, axis, first, [&](int v, int k, int j, int i) {
    w(v, k, j, i) = buf[idx++];
  });
}

void copy_halo(Block& dst, const Block& src, int axis, int side) {
  RSHC_REQUIRE(dst.ghost(axis) == src.ghost(axis),
               "halo ghost width mismatch");
  for (int a = 0; a < 3; ++a) {
    if (a == axis) continue;
    RSHC_REQUIRE(dst.interior(a) == src.interior(a),
                 "halo transverse extent mismatch");
  }
  // dst's (axis, side) ghosts come from src's opposite face layers.
  const int src_first =
      side == 0 ? src.end(axis) - src.ghost(axis) : src.begin(axis);
  const int dst_first = side == 0 ? 0 : dst.end(axis);
  const int shift = dst_first - src_first;
  const auto& ws = src.prim();
  auto& wd = dst.prim();
  for_each_face_cell(src, axis, src_first, [&](int v, int k, int j, int i) {
    const int kk = axis == 2 ? k + shift : k;
    const int jj = axis == 1 ? j + shift : j;
    const int ii = axis == 0 ? i + shift : i;
    wd(v, kk, jj, ii) = ws(v, k, j, i);
  });
}

}  // namespace rshc::mesh
