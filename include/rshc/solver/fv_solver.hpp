#pragma once
// Generic block-structured finite-volume HRSC solver (method of lines):
// reconstruct primitives along axis pencils, solve a Riemann problem at
// every interface, accumulate flux differences, advance with an SSP
// Runge-Kutta integrator, and recover primitives. Parametrized over a
// Physics trait (SrhdPhysics / SrmhdPhysics).
//
// One step schedule, the futurized dataflow graph: per-(block, stage)
// exchange and compute tasks linked only by true data dependencies.
//  - step(dt)                      runs the one-step graph inline on the
//    calling thread, in creation order
//  - run_steps_dataflow(n, dt, p)  runs one graph spanning n whole steps on
//    pool p: no barrier inside a step or between its steps; the call's
//    return is the only barrier (F3/F4/F6a sweep its worker count)
// Both execute the same node bodies on the same data, so they agree bit
// for bit with each other and with the per-pencil test oracle.
// HostPipeline::kDevice steps run the same graph inline with device node
// forms: E pulls the block's rims into the host mirror, K fills its ghosts
// there and enqueues the upload and kernels (DeviceExec); one synchronize
// ends the step.
//
// Per-step dependency structure (E = exchange+BC, K = rhs+update+c2p):
//   E(b,s) <- K(b,s-1), K(nbr,s-1)   (needs stage s-1 prims of b and nbrs)
//   K(b,s) <- E(b,s), E(nbr,s)       (E(nbr,s) read b's prims: anti-dep;
//                                     on the device, E(nbr,s) lands the
//                                     rims K(b,s)'s ghost fill reads)

#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "rshc/device/device.hpp"
#include "rshc/mesh/block.hpp"
#include "rshc/mesh/boundary.hpp"
#include "rshc/mesh/decomposition.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/physics.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::solver {

/// Where the per-block hot loops (rhs, RK update, con2prim, CFL scan) run.
/// Both settings execute the same compiled batched cores (rhs_core.hpp)
/// and are bitwise identical to each other and to the per-pencil test
/// oracle (tests/support/pencil_reference.hpp):
///  - kBatchedSimd  on the host: slab-wise plane reconstruction, tiled
///                  transpose gathers, fused span loops over the
///                  vectorized kernels::simd TUs
///  - kDevice       the same cores launched as kernels on the simulated
///                  accelerator (DeviceExec): per-block state is
///                  device-resident across steps, only halo slabs cross
///                  the H2D/D2H boundary, transfers overlap with interior
///                  compute on a second stream
enum class HostPipeline {
  kBatchedSimd,
  kDevice,
};

[[nodiscard]] std::string_view host_pipeline_name(HostPipeline p);

template <typename Physics>
class DeviceExec;

template <typename Physics>
class FvSolver {
 public:
  using Prim = typename Physics::Prim;
  using Cons = typename Physics::Cons;
  using Context = typename Physics::Context;

  struct Options {
    recon::Method recon = recon::Method::kPLMMC;
    time::Integrator integrator = time::Integrator::kSspRk3;
    double cfl = 0.4;
    mesh::BoundarySpec bc{};
    Context physics{};
    std::array<int, 3> blocks = {1, 1, 1};
    HostPipeline pipeline = HostPipeline::kBatchedSimd;
    /// Transfer/launch cost model for HostPipeline::kDevice (tests pass a
    /// zero-cost model; benchmarks keep the PCIe-like defaults).
    device::AccelModel accel{};
  };

  FvSolver(const mesh::Grid& grid, Options opt);

  /// Restricted construction: own a *single* block covering `sub` of the
  /// global grid (the distributed driver's per-rank view). A ghost filler
  /// must be installed before stepping — the built-in shared-memory
  /// exchange has no sibling blocks to copy from.
  FvSolver(const mesh::Grid& grid, Options opt, mesh::BlockExtents sub);

  ~FvSolver();  // out-of-line: Scratch is incomplete here

  /// Set initial data: fn(x, y, z) -> Prim, evaluated at interior cell
  /// centers; conservatives derived, ghosts filled.
  void initialize(const std::function<Prim(double, double, double)>& fn);

  /// CFL-limited time step from the current state.
  [[nodiscard]] double compute_dt() const;

  /// One time step: the one-step graph run inline on the calling thread
  /// (HostPipeline::kDevice: its device node forms, then one synchronize).
  void step(double dt);

  /// `nsteps` fixed-dt steps as one dependency graph run on `pool` (no
  /// barriers at all); one heartbeat for the burst. Host pipeline only.
  void run_steps_dataflow(int nsteps, double dt, parallel::ThreadPool& pool);

  /// Advance to t_end with adaptive dt (serial); returns steps taken.
  int advance_to(double t_end, int max_steps = 1000000);

  // --- observation ----------------------------------------------------
  [[nodiscard]] const mesh::Grid& grid() const { return grid_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] double time() const { return time_; }
  /// Steps taken over this solver's lifetime (any stepping entry point);
  /// also the step number stamped on the telemetry heartbeat.
  [[nodiscard]] long long steps_taken() const { return steps_taken_; }
  [[nodiscard]] int num_blocks() const {
    return static_cast<int>(blocks_.size());
  }
  [[nodiscard]] mesh::Block& block(int b) { return blocks_[b]; }
  [[nodiscard]] const mesh::Block& block(int b) const { return blocks_[b]; }
  [[nodiscard]] const C2PStats& c2p_stats() const { return stats_; }

  /// Primitive state at a global interior cell (slow; analysis only).
  [[nodiscard]] Prim prim_at(long long gi, long long gj = 0,
                             long long gk = 0) const;
  /// One primitive variable over the whole interior in global row-major
  /// (k, j, i) order (analysis/norms only).
  [[nodiscard]] std::vector<double> gather_prim_var(int v) const;
  /// Volume-weighted sum of the conservatives (conservation audits).
  [[nodiscard]] Cons total_cons() const;

  /// Re-fill all ghost zones from current prims (diagnostics that need
  /// up-to-date halos, e.g. div B).
  void fill_all_ghosts();

  /// Overwrite the clock (restart support, the test oracle).
  void set_time(double t) { time_ = t; }
  /// Restart support: after the caller rewrote every block's interior cons
  /// and prims (io::read_checkpoint), refill the ghosts and make the host
  /// mirror authoritative again. Restoring the prims, not re-deriving them,
  /// keeps a resumed run bitwise identical to an uninterrupted one: each
  /// con2prim starts from the prims it overwrites.
  void finish_restore();

  /// Evaluate the flux-divergence RHS for every block from the current
  /// primitives (benchmark hook: isolates the host rhs phase without
  /// stepping).
  void compute_rhs_all();

  /// Replace the default shared-memory ghost fill for block `b` with a
  /// custom routine — the hook the distributed (message-passing) driver
  /// uses to splice halo exchange over a Communicator into the same
  /// stepping machinery.
  void set_ghost_filler(std::function<void(int)> filler) {
    ghost_filler_ = std::move(filler);
  }

  /// Invoked by the finish hook once per face of block b, as soon as that
  /// face's ghosts are valid (halo unpacked or physical boundary applied).
  using FaceReadyFn = std::function<void(int axis, int side)>;
  /// Install the latency-hiding exchange pair (the distributed driver's
  /// hook; see DESIGN.md "Latency-hiding halo exchange"). `begin(b)` posts
  /// the async exchange for block b and returns while messages fly;
  /// `finish(b, ready)` completes it, calling `ready(axis, side)` for
  /// every face as its ghosts become valid. With the pair installed (and a
  /// host pipeline selected), the stepping paths split each RHS into a
  /// ghost-independent interior pass overlapped with the message flight
  /// plus stencil-width boundary boxes computed as their faces arrive —
  /// bitwise identical to the synchronous schedule. Pass empty functions
  /// to uninstall (the sync ghost filler is used again).
  void set_overlap_exchange(
      std::function<void(int)> begin,
      std::function<void(int, const FaceReadyFn&)> finish) {
    overlap_begin_ = std::move(begin);
    overlap_finish_ = std::move(finish);
  }

  // --- device offload (HostPipeline::kDevice) -------------------------
  /// True when device arenas hold the authoritative state (the host
  /// mirror's interior may be stale between sync_from_device calls).
  [[nodiscard]] bool device_resident() const;
  /// Drain the device and copy cons+prim back into the host mirror so
  /// prim_at / gather_prim_var / total_cons / offload see current data.
  /// Residency is kept; no-op when not resident.
  void sync_from_device();
  /// Switch the execution pipeline mid-run. Leaving kDevice syncs the
  /// host mirror and drops residency (the next kDevice step re-uploads).
  void set_pipeline(HostPipeline p);

 private:
  struct Scratch;  // per-block batched-tile work arrays

  [[nodiscard]] bool overlap_active() const {
    return static_cast<bool>(overlap_begin_) &&
           static_cast<bool>(overlap_finish_) &&
           opt_.pipeline != HostPipeline::kDevice;
  }
  void exchange_block(int b);
  /// Full-block RHS: compute_rhs_range over the interior, du zeroed first.
  void compute_rhs(int b);
  /// Restricted-box RHS: accumulate only zones in [lo, hi); `zero_du`
  /// clears the whole accumulator first. Bitwise equal per zone to the
  /// full-range call (see core::rhs_batched_range).
  void compute_rhs_range(int b, const std::array<int, 3>& lo,
                         const std::array<int, 3>& hi, bool zero_du);
  /// Interior-first RHS for the overlapped exchange: interior box while
  /// messages fly, then boundary boxes as overlap_finish_ reports faces.
  void compute_rhs_overlapped(int b);
  /// RK stage combination + con2prim over the block interior.
  void update_block(int b, time::StageCoeffs coeffs, double dt);
  void merge_block_stats();
  parallel::TaskGraph& step_graph(int nsteps);

  mesh::Grid grid_;
  Options opt_;
  int ng_;
  mesh::Decomposition decomp_;
  std::vector<mesh::Block> blocks_;
  // Both are written before they are read (the first-stage exchange node's
  // copy, the rhs's zero_du box), so they are allocated FieldArray::NoFill.
  std::vector<mesh::FieldArray> u0_;  // RK reference state
  std::vector<mesh::FieldArray> du_;  // flux-difference accumulator
  std::vector<std::unique_ptr<Scratch>> scratch_;
  std::vector<C2PStats> block_stats_;
  std::function<void(int)> ghost_filler_;
  std::function<void(int)> overlap_begin_;
  std::function<void(int, const FaceReadyFn&)> overlap_finish_;
  bool restricted_ = false;
  C2PStats stats_;
  double time_ = 0.0;
  double current_dt_ = 0.0;
  long long steps_taken_ = 0;

  // Lazily constructed on the first kDevice step; owns the per-block
  // device arenas (see device_exec.hpp).
  std::unique_ptr<DeviceExec<Physics>> device_;

  // The cached step graph, keyed by step count, overlap mode and pipeline
  // (the node bodies differ when the exchange is futurized or the nodes
  // drive the device).
  std::unique_ptr<parallel::TaskGraph> graph_;
  int graph_steps_ = 0;
  bool graph_overlap_ = false;
  bool graph_device_ = false;
};

using SrhdSolver = FvSolver<SrhdPhysics>;
using SrmhdSolver = FvSolver<SrmhdPhysics>;

extern template class FvSolver<SrhdPhysics>;
extern template class FvSolver<SrmhdPhysics>;

}  // namespace rshc::solver
