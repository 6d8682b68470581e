#pragma once
// Distributed driver: one rank = one block of a Cartesian domain
// decomposition, halos exchanged as messages over a Communicator, dt
// agreed by allreduce. Built by splicing a message-passing ghost filler
// into the shared FvSolver machinery (set_ghost_filler), so the numerics
// are bit-identical to the shared-memory paths — which is exactly what the
// distributed-equivalence tests assert. Works for both physics systems
// (SRHD and SRMHD) through the same trait mechanism as FvSolver.
//
// Stepping defaults to the latency-hiding exchange (DESIGN.md
// "Latency-hiding halo exchange"): begin_exchange posts every irecv and
// isend up front through persistent per-face buffers, FvSolver computes
// the ghost-free interior while the messages fly, and finish_exchange
// unpacks faces in arrival order (wait_any), releasing each boundary box
// the moment its ghosts are valid. Bitwise identical to the synchronous
// schedule; set_overlap(false) restores it.

#include <array>
#include <optional>
#include <span>

#include "rshc/check/halo_guard.hpp"
#include "rshc/comm/cart_topology.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace rshc::solver {

template <typename Physics>
class DistributedSolver {
 public:
  using Options = typename FvSolver<Physics>::Options;  // `blocks` ignored
  using Prim = typename Physics::Prim;

  DistributedSolver(const mesh::Grid& grid, comm::Communicator& comm,
                    Options opt);

  void initialize(const std::function<Prim(double, double, double)>& fn);

  /// Globally agreed CFL step (local bound + min-allreduce).
  [[nodiscard]] double compute_dt();

  void step(double dt);
  /// Advance all ranks to t_end with adaptive, globally agreed dt.
  int advance_to(double t_end, int max_steps = 1000000);

  /// Enable/disable the latency-hiding exchange for subsequent steps.
  /// On by default. Both schedules are bitwise identical; off exists for
  /// A/B timing (F6b) and as an escape hatch.
  void set_overlap(bool on);

  [[nodiscard]] double time() const { return local_.time(); }
  [[nodiscard]] const mesh::Block& local_block() const {
    return local_.block(0);
  }
  [[nodiscard]] FvSolver<Physics>& local() { return local_; }
  [[nodiscard]] const comm::CartTopology& topology() const { return topo_; }

  /// Gather one primitive variable to rank 0 in global row-major order
  /// (empty vector on other ranks). Collective: all ranks must call.
  [[nodiscard]] std::vector<double> gather_prim_var_root(int v);
  /// Gather several primitive variables at once — one coalesced message
  /// per rank instead of one per variable. Collective; every rank must
  /// pass the same `vars`. Returns one global row-major array per
  /// requested variable on rank 0, empty elsewhere.
  [[nodiscard]] std::vector<std::vector<double>> gather_prim_vars_root(
      std::span<const int> vars);

 private:
  using FaceReadyFn = typename FvSolver<Physics>::FaceReadyFn;

  void exchange_halos();
  /// Post every face irecv, then pack + isend every face, and return while
  /// the messages fly. The per-face recv futures stay armed (and the
  /// HaloGuard in-flight) until finish_exchange completes them.
  void begin_exchange();
  /// Apply physical boundaries, then complete halo receives in arrival
  /// order (wait_any), unpacking each face as its message lands. `ready`
  /// is invoked once per face the moment its ghosts are valid.
  void finish_exchange(const FaceReadyFn& ready);

  mesh::Grid grid_;
  comm::Communicator comm_;
  comm::CartTopology topo_;
  mesh::BlockExtents my_extents_;
  FvSolver<Physics> local_;
  // Persistent per-(axis, side) staging buffers: no per-exchange
  // allocation, all faces in flight simultaneously.
  mesh::HaloBufferSet halo_bufs_;
  // In-flight recv futures, indexed axis*2+side; empty slots = no
  // neighbour on that face.
  std::array<comm::CommFuture, 6> recv_futures_;
  bool overlap_ = true;
  // Lifecycle assertions on the recv buffers (no-op unless RSHC_CHECKS is
  // on): armed at irecv post, completed+consumed at the arrival-order
  // unpack — the guard spans the whole async window.
  check::HaloGuard halo_guard_;
};

using DistributedSrhdSolver = DistributedSolver<SrhdPhysics>;
using DistributedSrmhdSolver = DistributedSolver<SrmhdPhysics>;

extern template class DistributedSolver<SrhdPhysics>;
extern template class DistributedSolver<SrmhdPhysics>;

}  // namespace rshc::solver
