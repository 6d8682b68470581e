#include "rshc/solver/distributed.hpp"

#include <utility>
#include <vector>

#include "rshc/mesh/decomposition.hpp"
#include "rshc/obs/obs.hpp"

namespace rshc::solver {
namespace {

/// Message tag for a halo landing on the receiver's (axis, side) face.
int halo_tag(int axis, int receiver_side) { return axis * 2 + receiver_side; }

/// One coalesced gather message per rank (all requested variables).
constexpr int kGatherTag = 100;

/// Slot in recv_futures_ / HaloBufferSet for face (axis, side).
std::size_t face_slot(int axis, int side) {
  return static_cast<std::size_t>(axis * 2 + side);
}

std::array<bool, 3> periodic_flags(const mesh::BoundarySpec& bc) {
  return {bc.periodic(0), bc.periodic(1), bc.periodic(2)};
}

mesh::BlockExtents extents_for_rank(const mesh::Grid& grid,
                                    const comm::CartTopology& topo,
                                    int rank) {
  const mesh::Decomposition decomp(
      grid, {topo.dims()[0], topo.dims()[1], topo.dims()[2]});
  const auto c = topo.coords(rank);
  return decomp.extents(decomp.block_id({c[0], c[1], c[2]}));
}

}  // namespace

template <typename Physics>
DistributedSolver<Physics>::DistributedSolver(const mesh::Grid& grid,
                                              comm::Communicator& comm,
                                              Options opt)
    : grid_(grid),
      comm_(comm),
      topo_(comm.size(), grid.ndim(), {0, 0, 0}, periodic_flags(opt.bc)),
      my_extents_(extents_for_rank(grid, topo_, comm.rank())),
      local_(grid_, opt, my_extents_) {
  // Synchronous filler stays installed for the non-stepping ghost fills
  // (initialize, restart recovery) and as the overlap-off path.
  local_.set_ghost_filler([this](int) { exchange_halos(); });
  set_overlap(true);
}

template <typename Physics>
void DistributedSolver<Physics>::set_overlap(bool on) {
  overlap_ = on;
  if (on) {
    local_.set_overlap_exchange(
        [this](int) { begin_exchange(); },
        [this](int, const FaceReadyFn& ready) { finish_exchange(ready); });
  } else {
    local_.set_overlap_exchange({}, {});
  }
}

template <typename Physics>
void DistributedSolver<Physics>::initialize(
    const std::function<Prim(double, double, double)>& fn) {
  local_.initialize(fn);
}

template <typename Physics>
void DistributedSolver<Physics>::begin_exchange() {
  RSHC_TRACE_SCOPE("halo.exchange.begin", "comm", comm_.rank());
  mesh::Block& blk = local_.block(0);
  halo_bufs_.ensure_sized(blk);
  const int me = comm_.rank();
  // Post every irecv before any send: the MPI-correct shape (receives
  // pre-posted when the payloads land) even though sends never block in
  // the in-process model. The guard arms here and stays in-flight across
  // the whole async window — a premature unpack trips it.
  for (int axis = 0; axis < grid_.ndim(); ++axis) {
    for (int side = 0; side < 2; ++side) {
      const auto nbr = topo_.neighbor(me, axis, side == 0 ? -1 : +1);
      if (!nbr.has_value()) continue;
      halo_guard_.post(axis, side);
      recv_futures_[face_slot(axis, side)] = comm_.irecv(
          *nbr, halo_tag(axis, side),
          std::span<double>(halo_bufs_.recv(axis, side)));
    }
  }
  // Pack and launch every face. Each face has its own persistent buffer,
  // so all of them are in flight simultaneously — no reallocation, no
  // serialization point.
  for (int axis = 0; axis < grid_.ndim(); ++axis) {
    for (int side = 0; side < 2; ++side) {
      const auto nbr = topo_.neighbor(me, axis, side == 0 ? -1 : +1);
      if (!nbr.has_value()) continue;
      const auto buf = halo_bufs_.send(axis, side);
      {
        RSHC_OBS_PHASE("halo.pack", "comm", axis);
        mesh::pack_face(blk, axis, side, buf);
      }
      RSHC_OBS_COUNT("halo.messages_sent", 1);
      RSHC_OBS_COUNT("halo.bytes_sent",
                     static_cast<std::int64_t>(buf.size() * sizeof(double)));
      // My face `side` fills the neighbour's opposite-side ghosts.
      comm_.isend(*nbr, halo_tag(axis, 1 - side),
                  std::span<const double>(buf));
    }
  }
}

template <typename Physics>
void DistributedSolver<Physics>::finish_exchange(const FaceReadyFn& ready) {
  mesh::Block& blk = local_.block(0);
  const int me = comm_.rank();
  // Physical boundaries first: no message to wait for, and reporting them
  // immediately lets boundary boxes that only touch them run under the
  // still-flying halos.
  std::vector<comm::CommFuture*> pending;
  std::vector<std::array<int, 2>> faces;
  for (int axis = 0; axis < grid_.ndim(); ++axis) {
    for (int side = 0; side < 2; ++side) {
      const auto nbr = topo_.neighbor(me, axis, side == 0 ? -1 : +1);
      if (nbr.has_value()) {
        pending.push_back(&recv_futures_[face_slot(axis, side)]);
        faces.push_back({axis, side});
      } else {
        const auto negate = Physics::reflect_negate_vars(axis);
        mesh::apply_physical_boundary(
            blk, axis, side,
            local_.options().bc.type[static_cast<std::size_t>(axis)],
            negate);
        ready(axis, side);
      }
    }
  }
  // Complete halos in arrival order: whichever face's message is ready
  // first gets unpacked and released first. Unpacks write disjoint ghost
  // regions (faces only, interior transverse), so the order is free.
  while (!pending.empty()) {
    std::size_t idx;
    {
      RSHC_OBS_PHASE("halo.wait", "comm",
                     static_cast<int>(pending.size()));
      idx = comm::CommFuture::wait_any(
          std::span<comm::CommFuture* const>(pending.data(),
                                             pending.size()));
    }
    const int axis = faces[idx][0];
    const int side = faces[idx][1];
    halo_guard_.complete(axis, side);
    halo_guard_.consume(axis, side);
    {
      RSHC_OBS_PHASE("halo.unpack", "comm", axis);
      mesh::unpack_ghost(blk, axis, side, halo_bufs_.recv(axis, side));
    }
    recv_futures_[face_slot(axis, side)] = comm::CommFuture{};
    ready(axis, side);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(idx));
    faces.erase(faces.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

template <typename Physics>
void DistributedSolver<Physics>::exchange_halos() {
  // Synchronous fill = post everything, then drain to completion. Same
  // messages, same tags, same unpack layout as the overlapped path — the
  // two schedules differ only in what runs between begin and finish.
  RSHC_TRACE_SCOPE("halo.exchange", "comm", comm_.rank());
  begin_exchange();
  finish_exchange([](int, int) {});
}

template <typename Physics>
double DistributedSolver<Physics>::compute_dt() {
  const double local_dt = local_.compute_dt();
  return comm_.allreduce(local_dt, comm::ReduceOp::kMin);
}

template <typename Physics>
void DistributedSolver<Physics>::step(double dt) {
  local_.step(dt);
}

template <typename Physics>
int DistributedSolver<Physics>::advance_to(double t_end, int max_steps) {
  int steps = 0;
  while (local_.time() < t_end && steps < max_steps) {
    double dt = compute_dt();
    if (local_.time() + dt > t_end) dt = t_end - local_.time();
    step(dt);
    ++steps;
  }
  return steps;
}

template <typename Physics>
std::vector<double> DistributedSolver<Physics>::gather_prim_var_root(int v) {
  const std::array<int, 1> vars = {v};
  auto out = gather_prim_vars_root(vars);
  if (out.empty()) return {};
  return std::move(out[0]);
}

template <typename Physics>
std::vector<std::vector<double>> DistributedSolver<Physics>::
    gather_prim_vars_root(std::span<const int> vars) {
  const mesh::Block& blk = local_.block(0);
  // Serialize the interior slabs of every requested variable into one
  // message: [var0 row-major][var1 row-major]... — one send per rank
  // regardless of how many variables the caller wants.
  const auto ncells = static_cast<std::size_t>(my_extents_.num_cells());
  std::vector<double> mine;
  mine.reserve(vars.size() * ncells);
  const auto& w = blk.prim();
  for (const int v : vars) {
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          mine.push_back(w(v, k, j, i));
        }
      }
    }
  }

  if (comm_.rank() != 0) {
    comm_.send(0, kGatherTag, std::span<const double>(mine));
    return {};
  }

  std::vector<std::vector<double>> global(vars.size());
  for (auto& g : global) {
    g.resize(static_cast<std::size_t>(grid_.num_cells()));
  }
  std::vector<double> data;
  for (int r = 0; r < comm_.size(); ++r) {
    const mesh::BlockExtents ext =
        r == 0 ? my_extents_ : extents_for_rank(grid_, topo_, r);
    const auto rcells = static_cast<std::size_t>(ext.num_cells());
    const std::span<const double> payload = [&] {
      if (r == 0) return std::span<const double>(mine);
      data.resize(vars.size() * rcells);
      comm_.recv(r, kGatherTag, std::span<double>(data));
      return std::span<const double>(data);
    }();
    for (std::size_t vi = 0; vi < vars.size(); ++vi) {
      std::size_t idx = vi * rcells;
      auto& g = global[vi];
      for (long long k = ext.lo[2]; k < ext.hi[2]; ++k) {
        for (long long j = ext.lo[1]; j < ext.hi[1]; ++j) {
          for (long long i = ext.lo[0]; i < ext.hi[0]; ++i) {
            g[static_cast<std::size_t>(
                (k * grid_.extent(1) + j) * grid_.extent(0) + i)] =
                payload[idx++];
          }
        }
      }
    }
  }
  return global;
}

template class DistributedSolver<SrhdPhysics>;
template class DistributedSolver<SrmhdPhysics>;

}  // namespace rshc::solver
