#include "rshc/solver/fv_solver.hpp"

#include <algorithm>

#include "rshc/check/check.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/solver/device_exec.hpp"
#include "rshc/solver/rhs_core.hpp"

namespace rshc::solver {

std::string_view host_pipeline_name(HostPipeline p) {
  switch (p) {
    case HostPipeline::kBatchedSimd: return "batched-simd";
    case HostPipeline::kDevice: return "device";
  }
  return "unknown";
}

#if RSHC_OBS_ENABLED
namespace {
// Heartbeat throughput: interior zone-updates per second over the step(s)
// just taken (zones x RK stages x steps / elapsed), the "zones/sec" the
// live telemetry reports and perf_report turns into MLUPS. Zones are the
// solver's own blocks, so a restricted (per-rank) solver reports its
// rank's rate, not the global grid's.
double heartbeat_zone_rate(const std::vector<mesh::Block>& blocks,
                           int stages, long long nsteps, double seconds) {
  if (seconds <= 0.0) return 0.0;
  double zones = 0.0;
  for (const auto& blk : blocks) {
    zones += static_cast<double>(blk.interior(0)) *
             static_cast<double>(blk.interior(1)) *
             static_cast<double>(blk.interior(2));
  }
  return zones * static_cast<double>(stages) *
         static_cast<double>(nsteps) / seconds;
}
}  // namespace
#endif

// Per-block work arrays, sized once for the longest axis: the rhs
// reconstructs up to core::kTileRows pencils per call into the shared
// BatchScratch tiles (rhs_core.hpp; allocated unfilled), which the device
// pipeline allocates per arena as well.
template <typename Physics>
struct FvSolver<Physics>::Scratch {
  core::BatchScratch<Physics> batch;

  // Sub-millisecond remainder of overlap-hidden time, carried across
  // stages so the integer comm.overlap.hidden_ms counter loses < 1 ms
  // total (per block — Scratch is per block, so graph workers never race).
  double hidden_ms_acc = 0.0;

  explicit Scratch(int max_extent) : batch(max_extent) {}
};

template <typename Physics>
FvSolver<Physics>::FvSolver(const mesh::Grid& grid, Options opt)
    : grid_(grid),
      opt_(opt),
      ng_(recon::ghost_width(opt.recon)),
      decomp_(grid_, opt.blocks) {
  const int nb = decomp_.num_blocks();
  blocks_.reserve(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    blocks_.emplace_back(grid_, decomp_.extents(b), ng_, Physics::kNumCons,
                         Physics::kNumPrim);
    const auto& blk = blocks_.back();
    for (int a = 0; a < grid_.ndim(); ++a) {
      RSHC_REQUIRE(blk.interior(a) >= ng_,
                   "block too small for reconstruction stencil");
    }
    u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                     blk.total(0), mesh::FieldArray::NoFill{});
    du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                     blk.total(0), mesh::FieldArray::NoFill{});
    const int max_extent =
        std::max({blk.total(0), blk.total(1), blk.total(2)});
    scratch_.push_back(std::make_unique<Scratch>(max_extent));
  }
  block_stats_.resize(static_cast<std::size_t>(nb));
}

template <typename Physics>
FvSolver<Physics>::FvSolver(const mesh::Grid& grid, Options opt,
                            mesh::BlockExtents sub)
    : grid_(grid),
      opt_(opt),
      ng_(recon::ghost_width(opt.recon)),
      decomp_(grid_, {1, 1, 1}),
      restricted_(true) {
  blocks_.emplace_back(grid_, sub, ng_, Physics::kNumCons,
                       Physics::kNumPrim);
  const auto& blk = blocks_.back();
  for (int a = 0; a < grid_.ndim(); ++a) {
    RSHC_REQUIRE(blk.interior(a) >= ng_,
                 "rank block too small for reconstruction stencil");
  }
  u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                   blk.total(0), mesh::FieldArray::NoFill{});
  du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                   blk.total(0), mesh::FieldArray::NoFill{});
  scratch_.push_back(std::make_unique<Scratch>(
      std::max({blk.total(0), blk.total(1), blk.total(2)})));
  block_stats_.resize(1);
}

template <typename Physics>
FvSolver<Physics>::~FvSolver() = default;

template <typename Physics>
void FvSolver<Physics>::initialize(
    const std::function<Prim(double, double, double)>& fn) {
  for (auto& blk : blocks_) {
    auto& w = blk.prim();
    auto& u = blk.cons();
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Prim p =
              fn(blk.center(0, i), blk.center(1, j), blk.center(2, k));
          RSHC_CHECK_PRIM("init", p, -1, i, j, k);
          Physics::store_prim(w, k, j, i, p);
          Physics::store_cons(u, k, j, i, Physics::to_cons(p, opt_.physics));
        }
      }
    }
  }
  fill_all_ghosts();
  if (device_) device_->invalidate();  // host mirror is authoritative again
  time_ = 0.0;
  stats_ = {};
}

template <typename Physics>
void FvSolver<Physics>::exchange_block(int b) {
  RSHC_OBS_PHASE("solver.phase.exchange", "solver", b);
  if (ghost_filler_) {
    ghost_filler_(b);
    return;
  }
  RSHC_REQUIRE(!restricted_,
               "restricted solver needs set_ghost_filler before stepping");
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  for (int axis = 0; axis < grid_.ndim(); ++axis) {
    const bool periodic = opt_.bc.periodic(axis);
    for (int side = 0; side < 2; ++side) {
      const auto nbr = decomp_.neighbor(b, axis, side, periodic);
      if (nbr.has_value()) {
        mesh::copy_halo(blk, blocks_[static_cast<std::size_t>(*nbr)], axis,
                        side);
      } else {
        const auto negate = Physics::reflect_negate_vars(axis);
        mesh::apply_physical_boundary(
            blk, axis, side, opt_.bc.type[static_cast<std::size_t>(axis)],
            negate);
      }
    }
  }
}

template <typename Physics>
void FvSolver<Physics>::fill_all_ghosts() {
  for (int b = 0; b < num_blocks(); ++b) exchange_block(b);
}

// Full-block rhs: the restricted call over the whole interior, so one
// compiled core body (core::rhs_batched_range) serves this, every box of
// the overlapped interior/boundary split, and the device rhs kernel.
template <typename Physics>
void FvSolver<Physics>::compute_rhs(int b) {
  RSHC_OBS_PHASE("solver.phase.rhs", "solver", b);
  const mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  compute_rhs_range(b, {blk.begin(0), blk.begin(1), blk.begin(2)},
                    {blk.end(0), blk.end(1), blk.end(2)}, /*zero_du=*/true);
}

template <typename Physics>
void FvSolver<Physics>::compute_rhs_range(int b, const std::array<int, 3>& lo,
                                          const std::array<int, 3>& hi,
                                          bool zero_du) {
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  core::rhs_batched_range<Physics>(
      core::shape_of(blk, grid_), opt_.physics, opt_.recon,
      blk.prim().flat().data(), du_[static_cast<std::size_t>(b)].flat().data(),
      scratch_[static_cast<std::size_t>(b)]->batch, b, lo, hi, zero_du);
}

// Interior-first rhs for the latency-hiding exchange. The deep interior
// (every zone >= ng from each active face) reads no ghosts, so it runs
// while halo messages fly; the remaining onion of ng-wide boundary boxes
// runs as overlap_finish_ reports faces valid. The boxes partition the
// block disjointly and compute_rhs_range is bitwise per zone regardless of
// box order, so the result is bit-identical to compute_rhs after a
// synchronous exchange.
template <typename Physics>
void FvSolver<Physics>::compute_rhs_overlapped(int b) {
  RSHC_OBS_PHASE("solver.phase.rhs", "solver", b);
  const mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];

  std::array<int, 3> ilo{};
  std::array<int, 3> ihi{};
  bool has_interior = true;
  for (int a = 0; a < 3; ++a) {
    const int margin = a < grid_.ndim() ? blk.ghost(a) : 0;
    ilo[a] = blk.begin(a) + margin;
    ihi[a] = blk.end(a) - margin;
    if (ilo[a] >= ihi[a]) has_interior = false;
  }

  struct Box {
    std::array<int, 3> lo;
    std::array<int, 3> hi;
    unsigned need = 0;  // faces (bit axis*2+side) whose ghosts the box reads
    bool zero = false;
    bool done = false;
  };
  unsigned all_faces = 0;
  for (int a = 0; a < grid_.ndim(); ++a) {
    all_faces |= (1u << (a * 2)) | (1u << (a * 2 + 1));
  }

  std::array<Box, 7> boxes{};
  std::size_t nboxes = 0;
  if (has_interior) {
    // Onion decomposition: box(a, side) is the ng-wide margin at face
    // (a, side), restricted to the interior of axes < a and spanning axes
    // > a fully — the boxes tile (block \ deep interior) disjointly. A box
    // reads the ghosts of its own face, plus both faces of every active
    // axis t > a (its t-extent is full, so t-pencils reach both ghost
    // layers); axes < a never reach ghosts (extent clipped to interior).
    for (int a = 0; a < grid_.ndim(); ++a) {
      for (int side = 0; side < 2; ++side) {
        Box& box = boxes[nboxes++];
        for (int t = 0; t < 3; ++t) {
          box.lo[t] = t < a ? ilo[t] : blk.begin(t);
          box.hi[t] = t < a ? ihi[t] : blk.end(t);
        }
        if (side == 0) {
          box.lo[a] = blk.begin(a);
          box.hi[a] = ilo[a];
        } else {
          box.lo[a] = ihi[a];
          box.hi[a] = blk.end(a);
        }
        box.need = 1u << (a * 2 + side);
        for (int t = a + 1; t < grid_.ndim(); ++t) {
          box.need |= (1u << (t * 2)) | (1u << (t * 2 + 1));
        }
      }
    }
  } else {
    // Degenerate block (some extent < 3*ng): no ghost-free interior.
    // One full box gated on every active face — no overlap, still correct.
    Box& box = boxes[nboxes++];
    for (int t = 0; t < 3; ++t) {
      box.lo[t] = blk.begin(t);
      box.hi[t] = blk.end(t);
    }
    box.need = all_faces;
    box.zero = true;
  }

  if (has_interior) {
    const WallTimer t;
    compute_rhs_range(b, ilo, ihi, /*zero_du=*/true);
    // The interior pass ran while the halo messages were in flight: that
    // is the comm time this schedule hides.
    const double ms = t.seconds() * 1000.0;
    Scratch& s = *scratch_[static_cast<std::size_t>(b)];
    s.hidden_ms_acc += ms;
    const auto whole = static_cast<long long>(s.hidden_ms_acc);
    if (whole > 0) {
      RSHC_OBS_COUNT("comm.overlap.hidden_ms", whole);
      s.hidden_ms_acc -= static_cast<double>(whole);
    }
    RSHC_OBS_COUNT("solver.rhs.interior_zones",
                   static_cast<long long>(ihi[0] - ilo[0]) *
                       static_cast<long long>(ihi[1] - ilo[1]) *
                       static_cast<long long>(ihi[2] - ilo[2]));
  }

  // Inactive axes have no exchange: mark their faces pre-arrived so the
  // masks only ever gate on real messages.
  unsigned arrived = ~all_faces;
  auto sweep = [&] {
    for (std::size_t i = 0; i < nboxes; ++i) {
      Box& box = boxes[i];
      if (box.done || (box.need & ~arrived) != 0) continue;
      compute_rhs_range(b, box.lo, box.hi, box.zero);
      box.done = true;
    }
  };
  const FaceReadyFn ready = [&](int axis, int side) {
    arrived |= 1u << (axis * 2 + side);
    sweep();
  };
  overlap_finish_(b, ready);
  for (std::size_t i = 0; i < nboxes; ++i) {
    RSHC_REQUIRE(boxes[i].done,
                 "overlap finish hook did not report every face ready");
  }
}

template <typename Physics>
void FvSolver<Physics>::compute_rhs_all() {
  for (int b = 0; b < num_blocks(); ++b) compute_rhs(b);
}

// RK stage: the shared core::update_batched instantiation (rk_combine_n
// span loops + batched con2prim) — the same compiled body the device
// pipeline launches as its update kernel.
template <typename Physics>
void FvSolver<Physics>::update_block(int b, time::StageCoeffs coeffs,
                                     double dt) {
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  C2PStats stats;
  core::update_batched<Physics>(
      core::shape_of(blk, grid_), opt_.physics, coeffs.a, coeffs.b,
      coeffs.c * dt, u0_[static_cast<std::size_t>(b)].flat().data(),
      du_[static_cast<std::size_t>(b)].flat().data(),
      blk.cons().flat().data(), blk.prim().flat().data(), stats, b);
  block_stats_[static_cast<std::size_t>(b)] += stats;
}

template <typename Physics>
void FvSolver<Physics>::save_state() {
  RSHC_OBS_PHASE("solver.phase.other", "solver", -1);
  for (int b = 0; b < num_blocks(); ++b) {
    const auto src = blocks_[static_cast<std::size_t>(b)].cons().flat();
    auto dst = u0_[static_cast<std::size_t>(b)].flat();
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

template <typename Physics>
void FvSolver<Physics>::post_step_all() {
  RSHC_OBS_PHASE("solver.phase.other", "solver", -1);
  for (int b = 0; b < num_blocks(); ++b) {
    auto& blk = blocks_[static_cast<std::size_t>(b)];
    Physics::post_step(blk.cons(), blk.prim(), opt_.physics, current_dt_,
                       grid_.min_dx());
  }
  merge_block_stats();
}

// Folds the per-block c2p counters into the solver total and publishes the
// step's share as the solver.c2p.iterations / solver.c2p.floored_zones
// registry counters, so a run report shows the Newton work and the floor
// hits next to the phase times.
template <typename Physics>
void FvSolver<Physics>::merge_block_stats() {
  C2PStats merged;
  for (auto& bs : block_stats_) {
    merged += bs;
    bs = {};
  }
  stats_ += merged;
  RSHC_OBS_COUNT("solver.c2p.iterations", merged.total_iterations);
  RSHC_OBS_COUNT("solver.c2p.floored_zones", merged.floored_zones);
}

template <typename Physics>
void FvSolver<Physics>::finish_restore() {
  fill_all_ghosts();
  if (device_) device_->invalidate();  // restart rewrote the host mirror
}

template <typename Physics>
double FvSolver<Physics>::compute_dt() const {
  if (opt_.pipeline == HostPipeline::kDevice && device_ &&
      device_->resident()) {
    // CFL scan on the device-resident state: same compiled core body, one
    // scalar download per block instead of a state round-trip.
    return opt_.cfl * grid_.min_dx() / device_->max_wave_speed();
  }
  // Slab-wise CFL scan through the shared core (the body the device
  // pipeline launches as its dt kernel).
  double vmax = 1e-30;
  std::vector<double> speed;
  for (const auto& blk : blocks_) {
    vmax = std::max(vmax, core::max_wave_speed_batched<Physics>(
                              core::shape_of(blk, grid_), opt_.physics,
                              blk.prim().flat().data(), speed));
  }
  return opt_.cfl * grid_.min_dx() / vmax;
}

template <typename Physics>
void FvSolver<Physics>::stage_serial(int stage, double dt) {
  const auto coeffs = time::stage_coeffs(opt_.integrator, stage);
  if (overlap_active()) {
    // Latency-hiding schedule: post every face exchange up front, compute
    // the ghost-free interior while messages fly, and finish boundary
    // boxes as their faces land. The exchange phase is the pack+post cost
    // only; the waits hide inside the rhs phase (that is the point).
    for (int b = 0; b < num_blocks(); ++b) overlap_begin_(b);
    for (int b = 0; b < num_blocks(); ++b) compute_rhs_overlapped(b);
  } else {
    for (int b = 0; b < num_blocks(); ++b) exchange_block(b);
    for (int b = 0; b < num_blocks(); ++b) compute_rhs(b);
  }
  for (int b = 0; b < num_blocks(); ++b) update_block(b, coeffs, dt);
}

// Device-offload step: establish residency (full upload, first step only),
// then per RK stage let DeviceExec pull rims down, run the host ghost
// logic, push ghosts back up, and chain the rhs/update kernels — all
// enqueued, overlapping transfer with compute. One synchronize at the end
// of the step publishes the c2p stats.
template <typename Physics>
void FvSolver<Physics>::step_device(double dt) {
  current_dt_ = dt;
  if (!device_) {
    device_ = std::make_unique<DeviceExec<Physics>>(
        grid_, blocks_, opt_.physics, opt_.recon, opt_.accel);
  }
  device_->ensure_resident();
  device_->save_state();
  for (int s = 0; s < time::num_stages(opt_.integrator); ++s) {
    const auto coeffs = time::stage_coeffs(opt_.integrator, s);
    device_->stage(coeffs.a, coeffs.b, coeffs.c * dt,
                   [this](int b) { exchange_block(b); }, block_stats_);
  }
  device_->post_step(dt, grid_.min_dx());
  device_->synchronize();
  merge_block_stats();
  time_ += dt;
}

template <typename Physics>
bool FvSolver<Physics>::device_resident() const {
  return device_ && device_->resident();
}

template <typename Physics>
void FvSolver<Physics>::sync_from_device() {
  if (!device_resident()) return;
  device_->synchronize();
  device_->download_all();
}

template <typename Physics>
void FvSolver<Physics>::set_pipeline(HostPipeline p) {
  if (p == opt_.pipeline) return;
  if (opt_.pipeline == HostPipeline::kDevice) {
    // Hand authority back to the host mirror; the next kDevice step will
    // re-upload (host steps in between mutate the mirror).
    sync_from_device();
    if (device_) device_->invalidate();
  }
  opt_.pipeline = p;
}

template <typename Physics>
void FvSolver<Physics>::step(double dt) {
  RSHC_OBS_PHASE("solver.step", "solver", -1);
  RSHC_OBS_COUNT("solver.steps", 1);
#if RSHC_OBS_ENABLED
  const WallTimer hb_timer;
#endif
  if (opt_.pipeline == HostPipeline::kDevice) {
    step_device(dt);
  } else {
    current_dt_ = dt;
    save_state();
    for (int s = 0; s < time::num_stages(opt_.integrator); ++s) {
      stage_serial(s, dt);
    }
    post_step_all();
    time_ += dt;
  }
  ++steps_taken_;
#if RSHC_OBS_ENABLED
  RSHC_OBS_HEARTBEAT(steps_taken_, time_, dt,
                     heartbeat_zone_rate(blocks_,
                                         time::num_stages(opt_.integrator),
                                         1, hb_timer.seconds()));
#endif
}

template <typename Physics>
void FvSolver<Physics>::step_parallel(double dt, parallel::ThreadPool& pool,
                                      bool dataflow) {
  RSHC_REQUIRE(opt_.pipeline != HostPipeline::kDevice,
               "host-parallel stepping does not drive the device pipeline; "
               "use step() or set_pipeline() first");
  RSHC_OBS_PHASE("solver.step", "solver", -1);
  if (dataflow) {
    // The one-step graph saves u0 in its first-stage nodes and applies
    // post_step in its last-stage nodes, so nothing may wrap it.
    run_steps_dataflow(1, dt, pool);
    return;
  }
  RSHC_OBS_COUNT("solver.steps", 1);
#if RSHC_OBS_ENABLED
  const WallTimer hb_timer;
#endif
  // Bulk-synchronous: a barrier after every phase of every stage.
  current_dt_ = dt;
  save_state();
  const int nb = num_blocks();
  for (int s = 0; s < time::num_stages(opt_.integrator); ++s) {
    const auto coeffs = time::stage_coeffs(opt_.integrator, s);
    pool.parallel_for(0, nb, [&](long long b) {
      exchange_block(static_cast<int>(b));
    });
    pool.parallel_for(0, nb, [&](long long b) {
      compute_rhs(static_cast<int>(b));
      update_block(static_cast<int>(b), coeffs, dt);
    });
  }
  post_step_all();
  time_ += dt;
  ++steps_taken_;
#if RSHC_OBS_ENABLED
  RSHC_OBS_HEARTBEAT(steps_taken_, time_, dt,
                     heartbeat_zone_rate(blocks_,
                                         time::num_stages(opt_.integrator),
                                         1, hb_timer.seconds()));
#endif
}

template <typename Physics>
parallel::TaskGraph& FvSolver<Physics>::step_graph(int nsteps) {
  if (graph_ && graph_steps_ == nsteps &&
      graph_overlap_ == overlap_active()) {
    return *graph_;
  }
  graph_ = std::make_unique<parallel::TaskGraph>();
  graph_steps_ = nsteps;
  graph_overlap_ = overlap_active();
  const bool overlap = graph_overlap_;

  using NodeId = parallel::TaskGraph::NodeId;
  const int nb = num_blocks();
  const int stages = time::num_stages(opt_.integrator);
  std::vector<NodeId> prev_k;  // K nodes of the previous global stage
  std::vector<NodeId> cur_e(static_cast<std::size_t>(nb));
  std::vector<NodeId> cur_k(static_cast<std::size_t>(nb));

  auto neighbors_of = [&](int b) {
    std::vector<int> out;
    for (int axis = 0; axis < grid_.ndim(); ++axis) {
      for (int side = 0; side < 2; ++side) {
        const auto nbr =
            decomp_.neighbor(b, axis, side, opt_.bc.periodic(axis));
        if (nbr.has_value() && *nbr != b) out.push_back(*nbr);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  for (int step = 0; step < nsteps; ++step) {
    for (int s = 0; s < stages; ++s) {
      const bool step_start = (s == 0);
      const bool step_end = (s == stages - 1);
      const auto coeffs = time::stage_coeffs(opt_.integrator, s);
      // E nodes: exchange+BC. Depend on previous-global-stage K of self and
      // neighbours (empty for the very first stage: graph roots).
      for (int b = 0; b < nb; ++b) {
        std::vector<NodeId> deps;
        if (!prev_k.empty()) {
          deps.push_back(prev_k[static_cast<std::size_t>(b)]);
          for (int nbr : neighbors_of(b)) {
            deps.push_back(prev_k[static_cast<std::size_t>(nbr)]);
          }
        }
        cur_e[static_cast<std::size_t>(b)] = graph_->add(
            [this, b, step_start, overlap] {
              if (step_start) {
                // Per-block save of the RK reference state (dataflow keeps
                // even this barrier-free).
                const auto src =
                    blocks_[static_cast<std::size_t>(b)].cons().flat();
                auto dst = u0_[static_cast<std::size_t>(b)].flat();
                std::copy(src.begin(), src.end(), dst.begin());
              }
              // Overlap: only post the async exchange here; the matching
              // K node finishes it face by face under the interior pass,
              // so boundary work keys off halo arrival, not a bulk wait.
              if (overlap) {
                overlap_begin_(b);
              } else {
                exchange_block(b);
              }
            },
            deps);
      }
      // K nodes: rhs+update+c2p. Depend on own E and neighbours' E
      // (anti-dependency: E(nbr) reads this block's prims).
      for (int b = 0; b < nb; ++b) {
        std::vector<NodeId> deps;
        deps.push_back(cur_e[static_cast<std::size_t>(b)]);
        for (int nbr : neighbors_of(b)) {
          deps.push_back(cur_e[static_cast<std::size_t>(nbr)]);
        }
        cur_k[static_cast<std::size_t>(b)] = graph_->add(
            [this, b, coeffs, step_end, overlap] {
              if (overlap) {
                compute_rhs_overlapped(b);
              } else {
                compute_rhs(b);
              }
              update_block(b, coeffs, current_dt_);
              if (step_end) {
                auto& blk = blocks_[static_cast<std::size_t>(b)];
                Physics::post_step(blk.cons(), blk.prim(), opt_.physics,
                                   current_dt_, grid_.min_dx());
              }
            },
            deps);
      }
      prev_k = cur_k;
    }
  }
  return *graph_;
}

template <typename Physics>
void FvSolver<Physics>::run_steps_dataflow(int nsteps, double dt,
                                           parallel::ThreadPool& pool) {
  RSHC_REQUIRE(opt_.pipeline != HostPipeline::kDevice,
               "host-parallel stepping does not drive the device pipeline; "
               "use step() or set_pipeline() first");
  RSHC_TRACE_SCOPE("solver.run_steps_dataflow", "solver", nsteps);
  RSHC_OBS_COUNT("solver.steps", nsteps);
#if RSHC_OBS_ENABLED
  const WallTimer hb_timer;
#endif
  current_dt_ = dt;
  // save_state happens inside the first-stage E nodes (per block).
  step_graph(nsteps).run(pool);
  // post_step is folded into the last-stage K nodes.
  merge_block_stats();
  time_ += dt * nsteps;
  steps_taken_ += nsteps;
#if RSHC_OBS_ENABLED
  // One heartbeat for the whole burst (there is no per-step boundary in
  // the fused graph); the rate still averages over every step taken.
  RSHC_OBS_HEARTBEAT(steps_taken_, time_, dt,
                     heartbeat_zone_rate(blocks_,
                                         time::num_stages(opt_.integrator),
                                         nsteps, hb_timer.seconds()));
#endif
}

template <typename Physics>
void FvSolver<Physics>::run_steps_bulksync(int nsteps, double dt,
                                           parallel::ThreadPool& pool) {
  for (int i = 0; i < nsteps; ++i) step_parallel(dt, pool, /*dataflow=*/false);
}

template <typename Physics>
int FvSolver<Physics>::advance_to(double t_end, int max_steps) {
  int steps = 0;
  while (time_ < t_end && steps < max_steps) {
    double dt = compute_dt();
    if (time_ + dt > t_end) dt = t_end - time_;
    step(dt);
    ++steps;
  }
  return steps;
}

template <typename Physics>
typename Physics::Prim FvSolver<Physics>::prim_at(long long gi, long long gj,
                                                  long long gk) const {
  for (const auto& blk : blocks_) {
    const auto& e = blk.extents();
    if (gi >= e.lo[0] && gi < e.hi[0] && gj >= e.lo[1] && gj < e.hi[1] &&
        gk >= e.lo[2] && gk < e.hi[2]) {
      const int i = static_cast<int>(gi - e.lo[0]) + blk.ghost(0);
      const int j = static_cast<int>(gj - e.lo[1]) + blk.ghost(1);
      const int k = static_cast<int>(gk - e.lo[2]) + blk.ghost(2);
      return Physics::load_prim(blk.prim(), k, j, i);
    }
  }
  RSHC_REQUIRE(false, "global cell index outside the grid");
  return {};
}

template <typename Physics>
std::vector<double> FvSolver<Physics>::gather_prim_var(int v) const {
  std::vector<double> out(static_cast<std::size_t>(grid_.num_cells()));
  for (const auto& blk : blocks_) {
    const auto& e = blk.extents();
    const auto& w = blk.prim();
    // Interior rows are contiguous in both the block slab and the global
    // row-major output: copy whole rows.
    const auto nx = static_cast<std::size_t>(blk.interior(0));
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        const long long gj = e.lo[1] + (j - blk.ghost(1));
        const long long gk = e.lo[2] + (k - blk.ghost(2));
        const std::size_t idx = static_cast<std::size_t>(
            (gk * grid_.extent(1) + gj) * grid_.extent(0) + e.lo[0]);
        const double* row =
            w.var(v).data() + w.cell_index(k, j, blk.begin(0));
        std::copy(row, row + nx, out.begin() + static_cast<long long>(idx));
      }
    }
  }
  return out;
}

template <typename Physics>
typename Physics::Cons FvSolver<Physics>::total_cons() const {
  Cons total;
  double vol = 1.0;
  for (int a = 0; a < grid_.ndim(); ++a) vol *= grid_.dx(a);
  for (const auto& blk : blocks_) {
    const auto& u = blk.cons();
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          total += vol * Physics::load_cons(u, k, j, i);
        }
      }
    }
  }
  return total;
}

template class FvSolver<SrhdPhysics>;
template class FvSolver<SrmhdPhysics>;

}  // namespace rshc::solver
