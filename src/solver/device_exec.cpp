#include "rshc/solver/device_exec.hpp"

#include <algorithm>

#include "rshc/mesh/field_array.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/solver/rhs_core.hpp"

namespace rshc::solver {

namespace {

/// Rim box: the ng interior layers adjacent to face (axis, side), with
/// transverse ranges restricted to the interior — exactly the region
/// halo.cpp's pack_face reads (corners are never read by the exchange).
mesh::BoxSpec rim_box(const mesh::Block& b, int axis, int side) {
  int lo[3];
  int n[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = b.begin(a);
    n[a] = b.interior(a);
  }
  lo[axis] = side == 0 ? b.begin(axis) : b.end(axis) - b.ghost(axis);
  n[axis] = b.ghost(axis);
  return mesh::BoxSpec{lo[2], lo[1], lo[0], n[2], n[1], n[0]};
}

/// Ghost box: the ng ghost layers outside face (axis, side). Transverse
/// ranges span the FULL ghosted extent — physical boundaries fill corner
/// ghosts (boundary.cpp writes the whole transverse range), and the device
/// prim array must mirror the host ghost state exactly for the bitwise
/// download contract to cover every cell.
mesh::BoxSpec ghost_box(const mesh::Block& b, int axis, int side) {
  int lo[3] = {0, 0, 0};
  int n[3] = {b.total(0), b.total(1), b.total(2)};
  lo[axis] = side == 0 ? 0 : b.end(axis);
  n[axis] = b.ghost(axis);
  return mesh::BoxSpec{lo[2], lo[1], lo[0], n[2], n[1], n[0]};
}

}  // namespace

/// Per-block device arena plus its halo staging plan. The staging buffer
/// holds one packed face box per active face, split into two buffers with
/// per-face offset tables: rims (interior transverse — exactly the cells
/// sibling exchange reads) come down, ghost shells (full transverse,
/// corners included) go back up. Steady-state traffic per step is exactly
/// nstages rim payloads D2H and nstages ghost-shell payloads H2D — the
/// halo-only contract the obs byte counters pin in test_device_pipeline.
template <typename Physics>
struct DeviceExec<Physics>::Arena {
  core::BlockShape shape;
  std::size_t cells = 0;
  device::Buffer cons, prim, u0, du;
  core::BatchScratch<Physics> scratch;
  std::vector<double> speed;  ///< CFL-kernel row scratch (device-side)
  std::vector<mesh::BoxSpec> rim;    ///< per active face, (axis, side) order
  std::vector<mesh::BoxSpec> ghost;  ///< matching ghost shells
  std::vector<std::size_t> rim_off, ghost_off;  ///< per-face, in doubles
  std::size_t rim_len = 0, ghost_len = 0;
  device::Buffer rim_stage, ghost_stage;
  std::vector<double> host_rim, host_ghost;

  Arena(device::Device& dev, const mesh::Block& blk, const mesh::Grid& grid)
      : shape(core::shape_of(blk, grid)), scratch(shape.max_extent()) {
    cells = shape.cells();
    cons = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    prim = dev.alloc(static_cast<std::size_t>(Physics::kNumPrim) * cells);
    u0 = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    du = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    const auto nv = static_cast<std::size_t>(Physics::kNumPrim);
    for (int axis = 0; axis < grid.ndim(); ++axis) {
      for (int side = 0; side < 2; ++side) {
        rim.push_back(rim_box(blk, axis, side));
        ghost.push_back(ghost_box(blk, axis, side));
        rim_off.push_back(rim_len);
        ghost_off.push_back(ghost_len);
        rim_len += nv * rim.back().cells();
        ghost_len += nv * ghost.back().cells();
      }
    }
    rim_stage = dev.alloc(rim_len);
    ghost_stage = dev.alloc(ghost_len);
    host_rim.resize(rim_len);
    host_ghost.resize(ghost_len);
  }

  [[nodiscard]] std::size_t rim_face_len(std::size_t f) const {
    return static_cast<std::size_t>(Physics::kNumPrim) * rim[f].cells();
  }
  [[nodiscard]] std::size_t ghost_face_len(std::size_t f) const {
    return static_cast<std::size_t>(Physics::kNumPrim) * ghost[f].cells();
  }
};

template <typename Physics>
DeviceExec<Physics>::DeviceExec(const mesh::Grid& grid,
                                std::vector<mesh::Block>& blocks,
                                const Context& ctx,
                                recon::Method recon,
                                device::AccelModel model)
    : grid_(&grid), blocks_(&blocks), ctx_(ctx), recon_(recon) {
  dev_ = device::make_device(model);
  compute_ = device::kDefaultStream;
  transfer_ = dev_->create_stream();
  arenas_.reserve(blocks.size());
  for (const auto& blk : blocks) {
    arenas_.push_back(std::make_unique<Arena>(*dev_, blk, grid));
  }
  vmax_dev_ = dev_->alloc(blocks.size());
  vmax_host_.resize(blocks.size());
}

template <typename Physics>
DeviceExec<Physics>::~DeviceExec() {
  // Drain in-flight kernels before the arenas they reference go away.
  dev_->synchronize();
}

template <typename Physics>
void DeviceExec<Physics>::ensure_resident() {
  if (resident_) return;
  RSHC_TRACE_SCOPE("device.residency_upload", "device", -1);
  // Full-state upload, once. Enqueued on the compute stream so the first
  // stage's kernels are ordered after it without explicit fences.
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    const mesh::Block& blk = (*blocks_)[b];
    dev_->upload_async(blk.cons().flat(), arenas_[b]->cons, compute_);
    dev_->upload_async(blk.prim().flat(), arenas_[b]->prim, compute_);
  }
  resident_ = true;
}

template <typename Physics>
void DeviceExec<Physics>::save_state() {
  for (auto& ap : arenas_) {
    Arena* a = ap.get();
    dev_->launch(
        [a] {
          const auto src = a->cons.device_view();
          auto dst = a->u0.device_view();
          std::copy(src.begin(), src.end(), dst.begin());
        },
        a->cells, compute_);
  }
}

template <typename Physics>
void DeviceExec<Physics>::stage(double ca, double cb, double cdt,
                                const std::function<void(int)>& exchange,
                                std::vector<C2PStats>& stats) {
  const std::size_t nb = arenas_.size();

  // 1. Pack every block's interior rims on the compute stream (ordered
  //    after the previous stage's update), then download the packed
  //    staging buffer on the transfer stream, fenced on the pack.
  std::vector<device::Event> down(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    Arena* a = arenas_[b].get();
    const device::Event packed = dev_->launch(
        [a] {
          const double* prim = a->prim.device_view().data();
          double* stage = a->rim_stage.device_view().data();
          for (std::size_t f = 0; f < a->rim.size(); ++f) {
            mesh::pack_box(prim, Physics::kNumPrim, a->shape.total[2],
                           a->shape.total[1], a->shape.total[0], a->rim[f],
                           stage + a->rim_off[f]);
          }
        },
        a->rim_len, compute_);
    dev_->wait_event(transfer_, packed);
    down[b] = dev_->download_async(a->rim_stage, a->host_rim, transfer_);
  }

  // 2. Unpack every rim into the host mirror before any ghost logic runs:
  //    exchange_block reads *neighbour* rims (sibling halo copies), so all
  //    rims must land first.
  for (std::size_t b = 0; b < nb; ++b) {
    down[b].wait();
    Arena& a = *arenas_[b];
    auto& w = (*blocks_)[b].prim();
    for (std::size_t f = 0; f < a.rim.size(); ++f) {
      w.unpack_box(a.rim[f], std::span<const double>(a.host_rim)
                                 .subspan(a.rim_off[f], a.rim_face_len(f)));
    }
  }

  // 3. Per block: host-side ghost fill, ghost upload on the transfer
  //    stream, then the unpack/rhs/update kernel chain fenced on that
  //    upload — block b's kernels run while block b+1 is still
  //    exchanging and uploading.
  for (std::size_t b = 0; b < nb; ++b) {
    exchange(static_cast<int>(b));
    Arena* a = arenas_[b].get();
    const auto& w = (*blocks_)[b].prim();
    for (std::size_t f = 0; f < a->ghost.size(); ++f) {
      w.pack_box(a->ghost[f],
                 std::span<double>(a->host_ghost)
                     .subspan(a->ghost_off[f], a->ghost_face_len(f)));
    }
    const device::Event up =
        dev_->upload_async(a->host_ghost, a->ghost_stage, transfer_);
    dev_->wait_event(compute_, up);
    dev_->launch(
        [a] {
          const double* stage = a->ghost_stage.device_view().data();
          double* prim = a->prim.device_view().data();
          for (std::size_t f = 0; f < a->ghost.size(); ++f) {
            mesh::unpack_box(prim, Physics::kNumPrim, a->shape.total[2],
                             a->shape.total[1], a->shape.total[0], a->ghost[f],
                             stage + a->ghost_off[f]);
          }
        },
        a->ghost_len, compute_);
    dev_->launch(
        [this, a, b] {
          core::rhs_batched_range<Physics>(
              a->shape, ctx_, recon_, a->prim.device_view().data(),
              a->du.device_view().data(), a->scratch, static_cast<int>(b),
              a->shape.begin, a->shape.end, /*zero_du=*/true);
        },
        a->cells, compute_);
    dev_->launch(
        [this, a, b, ca, cb, cdt, ps = &stats[b]] {
          core::update_batched<Physics>(
              a->shape, ctx_, ca, cb, cdt,
              a->u0.device_view().data(), a->du.device_view().data(),
              a->cons.device_view().data(), a->prim.device_view().data(), *ps,
              static_cast<int>(b));
        },
        a->cells, compute_);
  }
}

template <typename Physics>
void DeviceExec<Physics>::post_step(double dt, double dx_min) {
  for (auto& ap : arenas_) {
    Arena* a = ap.get();
    dev_->launch(
        [this, a, dt, dx_min] {
          core::post_step_slabs<Physics>(
              a->shape, ctx_, a->cons.device_view().data(),
              a->prim.device_view().data(), dt, dx_min);
        },
        a->cells, compute_);
  }
}

template <typename Physics>
double DeviceExec<Physics>::max_wave_speed() {
  device::Event last;
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    Arena* a = arenas_[b].get();
    last = dev_->launch(
        [this, a, b] {
          vmax_dev_.device_view()[b] = core::max_wave_speed_batched<Physics>(
              a->shape, ctx_, a->prim.device_view().data(), a->speed);
        },
        a->cells, compute_);
  }
  // Only one scalar slot per block crosses the boundary — the CFL scan is
  // not a state round-trip.
  dev_->wait_event(transfer_, last);
  dev_->download_async(vmax_dev_, vmax_host_, transfer_).wait();
  double vmax = 1e-30;
  for (const double v : vmax_host_) vmax = std::max(vmax, v);
  return vmax;
}

template <typename Physics>
void DeviceExec<Physics>::download_all() {
  RSHC_TRACE_SCOPE("device.state_download", "device", -1);
  std::vector<device::Event> done;
  done.reserve(arenas_.size() * 2);
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    mesh::Block& blk = (*blocks_)[b];
    // Compute stream: ordered after any in-flight kernels for the block.
    done.push_back(
        dev_->download_async(arenas_[b]->cons, blk.cons().flat(), compute_));
    done.push_back(
        dev_->download_async(arenas_[b]->prim, blk.prim().flat(), compute_));
  }
  for (const auto& e : done) e.wait();
}

template <typename Physics>
void DeviceExec<Physics>::synchronize() {
  dev_->synchronize();
}

template class DeviceExec<SrhdPhysics>;
template class DeviceExec<SrmhdPhysics>;

}  // namespace rshc::solver
