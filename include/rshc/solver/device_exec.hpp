#pragma once
// Device-resident execution of the FvSolver hot path (DESIGN.md systems
// #4/#12): each block's cons/prim/u0/du live in a per-block device arena
// that persists across steps, so after the initial residency upload only
// halo-sized payloads cross the H2D/D2H boundary — interior rims come down
// for the host-side ghost logic (sibling copies, physical BCs, or the
// distributed driver's custom filler), freshly filled ghost shells go back
// up. Transfers ride a dedicated transfer stream and are fenced against a
// compute stream with device::Events, so one block's rhs/update kernels
// run while the next block's halo upload is still in flight.
//
// There is no device step loop: FvSolver's step graph calls pull_rims
// from its exchange nodes, and land_rims then advance from its compute
// nodes.
//
// The kernels launched here call the same compiled core::rhs_batched_range
// / core::update_batched / core::post_step_slabs /
// core::max_wave_speed_batched instantiations as the host pipeline
// (rhs_core.cpp, -ffp-contract=off recipe), so HostPipeline::kDevice is
// bitwise identical to kBatchedSimd by construction —
// tests/test_device_pipeline.cpp pins both against the per-pencil oracle
// in tests/support/pencil_reference.hpp.

#include <memory>
#include <vector>

#include "rshc/device/device.hpp"
#include "rshc/mesh/block.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/physics.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::solver {

template <typename Physics>
class DeviceExec {
 public:
  using Context = typename Physics::Context;

  /// `blocks` is the solver's host mirror; it must outlive this object.
  DeviceExec(const mesh::Grid& grid, std::vector<mesh::Block>& blocks,
             const Context& ctx, recon::Method recon,
             device::AccelModel model);
  ~DeviceExec();

  /// True while the device arenas hold the authoritative state.
  [[nodiscard]] bool resident() const { return resident_; }
  /// Host mirror was rewritten (initialize/restart); re-upload next step.
  void invalidate() { resident_ = false; }

  /// Establish residency: full cons+prim upload for every block. No-op
  /// when already resident — steady-state steps move only halos.
  void ensure_resident();

  /// Exchange node E(b, s): with `save_u0` (stage 0) enqueue u0 = cons;
  /// then pack block b's interior rims on the compute stream and download
  /// them on the transfer stream (event-fenced). Nothing waits here, so
  /// every block's rim download of a stage is in flight together.
  void pull_rims(int b, bool save_u0);

  /// First half of compute node K(b', s) for every b' whose ghost fill
  /// reads block b's rims (b itself and its neighbours): wait for b's
  /// download (device.rim_wait) and unpack it into the host mirror. Only
  /// the first call after pull_rims(b) does anything, so each block's rims
  /// land once per stage, before the first ghost fill that reads them.
  void land_rims(int b);

  /// Compute node K(b, s), once the host filled b's ghosts in the mirror:
  /// upload the ghost shells on the transfer stream, then enqueue unpack,
  /// rhs and update (the RK stage with `coeffs`, then con2prim) fenced on
  /// that upload, so block b computes while block b+1 still exchanges.
  /// `damp` (last stage) also enqueues the GLM damping. `stats` receives
  /// the con2prim counters (read only after synchronize()).
  void advance(int b, time::StageCoeffs coeffs, double dt, bool damp,
               C2PStats& stats);

  /// Interior max signal speed from the device-resident state (the CFL
  /// scan as a device kernel + one scalar-sized download per block).
  [[nodiscard]] double max_wave_speed();

  /// Copy cons+prim back into the host mirror (residency is kept; the
  /// mirror becomes a consistent snapshot).
  void download_all();

  /// Drain both streams; after this the host may read `stats`.
  void synchronize();

 private:
  struct Arena;

  const mesh::Grid* grid_;
  std::vector<mesh::Block>* blocks_;
  Context ctx_;
  recon::Method recon_;
  std::unique_ptr<device::Device> dev_;
  device::StreamId compute_ = device::kDefaultStream;
  device::StreamId transfer_ = device::kDefaultStream;
  std::vector<std::unique_ptr<Arena>> arenas_;
  device::Buffer vmax_dev_;
  std::vector<double> vmax_host_;
  bool resident_ = false;
};

using SrhdDeviceExec = DeviceExec<SrhdPhysics>;
using SrmhdDeviceExec = DeviceExec<SrmhdPhysics>;

extern template class DeviceExec<SrhdPhysics>;
extern template class DeviceExec<SrmhdPhysics>;

}  // namespace rshc::solver
