#pragma once
// Per-layer timings of one FvSolver's block, taken by calling each layer's
// public entry point on the solver's live state between episodes:
//
//   recon    recon::reconstruct_rows over every prim variable and axis
//   riemann  Physics::interface_flux_n on the rows recon produced
//   rhs      FvSolver::compute_rhs_all (recon + riemann + gathers/accum)
//   c2p      Physics::cons_to_prim_n on the live conservatives (the batched
//            kernel the step runs; recover_all_prims takes the per-zone
//            path and also refills ghosts)
//   rk       rk_combine_n over every conservative variable
//   cfl      FvSolver::compute_dt
//   ghost    FvSolver::fill_all_ghosts (skipped for a rank's restricted
//            solver, whose ghost fill is a collective exchange)
//
// None of these calls changes the solver's prims or cons: compute_rhs_all
// writes the rhs accumulator, which every stage recomputes, and the other
// kernels write probe-owned scratch. A probed run therefore steps exactly
// like an unprobed one. All timings are seconds per call; one call covers
// the whole block once (one RK stage's worth of that layer).

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace perfbench {

template <typename Physics>
class LayerProbe {
 public:
  static constexpr int kNp = Physics::kNumPrim;
  static constexpr int kNc = Physics::kNumCons;

  LayerProbe(rshc::solver::FvSolver<Physics>& s, bool time_ghosts)
      : s_(s), time_ghosts_(time_ghosts) {
    const auto& blk = s.block(0);
    ng_ = blk.ghost(0);
    nx_ = blk.interior(0);
    ny_ = blk.interior(1);
    tx_ = blk.total(0);
    ty_ = blk.total(1);
    for (int v = 0; v < kNp; ++v) {
      ql_[0][v].resize(static_cast<std::size_t>(ny_) * tx_);
      qr_[0][v].resize(static_cast<std::size_t>(ny_) * tx_);
      qt_[v].resize(static_cast<std::size_t>(nx_) * ty_);
      ql_[1][v].resize(static_cast<std::size_t>(nx_) * ty_);
      qr_[1][v].resize(static_cast<std::size_t>(nx_) * ty_);
      w_[v].resize(static_cast<std::size_t>(nx_) * ny_);
    }
    for (int v = 0; v < kNc; ++v) {
      f_[v].resize(static_cast<std::size_t>(std::max(tx_, ty_)));
      y_[v].resize(static_cast<std::size_t>(nx_) * ny_);
      z_[v].assign(static_cast<std::size_t>(nx_) * ny_, 1.0e-3);
    }
  }

  [[nodiscard]] long long zones() const {
    return static_cast<long long>(nx_) * ny_;
  }
  [[nodiscard]] long long faces() const {
    return static_cast<long long>(ny_) * (nx_ + 1) +
           static_cast<long long>(nx_) * (ny_ + 1);
  }

  /// Time every layer `reps` times on the current state. Returns false if
  /// the configured Riemann solver has no batched kernel.
  bool run(int reps) {
    transpose_y();
    bool batched = true;
    for (int r = 0; r < reps; ++r) {
      rhs.push_back(time_call([&] { s_.compute_rhs_all(); }));
      recon.push_back(time_call([&] { reconstruct(); }));
      riemann.push_back(time_call([&] { batched = solve_faces() && batched; }));
      c2p.push_back(time_call([&] { recover(); }));
      rk.push_back(time_call([&] { combine(); }));
      cfl.push_back(time_call([&] { cfl_dt_ = s_.compute_dt(); }));
      if (time_ghosts_) {
        ghost.push_back(time_call([&] { s_.fill_all_ghosts(); }));
      }
    }
    return batched;
  }

  /// Local compute of one step, from the medians: `stages` calls each of
  /// rhs, rk and c2p, plus one CFL scan (ghost fills excluded).
  [[nodiscard]] double compute_step_seconds(int stages) const {
    return stages * (median(rhs) + median(rk) + median(c2p)) + median(cfl);
  }

  /// Write the per-layer metrics of this block. `step_s` is the median
  /// wall time of one step, `stages` the RK stages per step.
  void report(Result& r, double step_s, int stages) const {
    const double z = static_cast<double>(zones());
    const double ns = 1.0e9;
    const double t_recon = median(recon);
    const double t_riemann = median(riemann);
    const double t_rhs = median(rhs);
    const double t_ghost = time_ghosts_ ? median(ghost) : 0.0;
    r.metrics["recon.ns_per_zone"] = t_recon * ns / z;
    r.metrics["riemann.ns_per_face"] =
        t_riemann * ns / static_cast<double>(faces());
    r.metrics["rhs.ns_per_zone"] = t_rhs * ns / z;
    r.metrics["rhs.other_ns_per_zone"] = (t_rhs - t_recon - t_riemann) * ns / z;
    r.metrics["c2p.ns_per_zone"] = median(c2p) * ns / z;
    r.metrics["rk.ns_per_zone"] = median(rk) * ns / z;
    r.metrics["cfl.ns_per_zone"] = median(cfl) * ns / z;
    r.metrics["ghost.ns_per_zone"] = t_ghost * ns / z;
    r.metrics["step.ns_per_zone"] = step_s * ns / z;
    r.metrics["step.unattributed_ns_per_zone"] =
        (step_s - compute_step_seconds(stages) - stages * t_ghost) * ns / z;
    // Computed (not measured) traffic: every double each kernel reads or
    // writes once, ignoring cache reuse and misses.
    const int ndim = s_.grid().ndim();
    r.metrics["recon.computed_bytes_per_zone"] = 8.0 * kNp * ndim * 3;
    r.metrics["riemann.computed_bytes_per_face"] = 8.0 * (2 * kNp + kNc);
    r.metrics["c2p.computed_bytes_per_zone"] = 8.0 * (kNc + kNp);
    r.info["probe_samples"] = static_cast<double>(rhs.size());
  }

  std::vector<double> rhs, recon, riemann, c2p, rk, cfl, ghost;

 private:
  // y-pencils are strided in the SoA layout; reconstruct_rows wants
  // contiguous rows, so the probe stages them once per run (untimed).
  void transpose_y() {
    const auto& w = s_.block(0).prim();
    for (int v = 0; v < kNp; ++v) {
      for (int i = 0; i < nx_; ++i) {
        for (int j = 0; j < ty_; ++j) {
          qt_[v][static_cast<std::size_t>(i) * ty_ + j] = w(v, 0, j, ng_ + i);
        }
      }
    }
  }

  void reconstruct() {
    const auto m = s_.options().recon;
    const auto& w = s_.block(0).prim();
    for (int v = 0; v < kNp; ++v) {
      const double* q = w.var(v).data() + w.cell_index(0, ng_, 0);
      rshc::recon::reconstruct_rows(m, ny_, tx_, q, tx_, ql_[0][v].data(),
                                    qr_[0][v].data(), tx_);
      rshc::recon::reconstruct_rows(m, nx_, ty_, qt_[v].data(), ty_,
                                    ql_[1][v].data(), qr_[1][v].data(), ty_);
    }
  }

  // Interface i+1/2 of a row takes left = qr[i], right = ql[i+1]; the
  // interior faces of a row run from i = ng-1 to i = ng+n-1.
  bool solve_faces() {
    const auto& ctx = s_.options().physics;
    std::array<const double*, kNp> wl{};
    std::array<const double*, kNp> wr{};
    std::array<double*, kNc> f{};
    for (int v = 0; v < kNc; ++v) f[v] = f_[v].data();
    bool ok = true;
    for (int axis = 0; axis < 2; ++axis) {
      const int rows = axis == 0 ? ny_ : nx_;
      const int len = axis == 0 ? tx_ : ty_;
      const int n = axis == 0 ? nx_ : ny_;
      for (int row = 0; row < rows; ++row) {
        const std::size_t base = static_cast<std::size_t>(row) * len;
        for (int v = 0; v < kNp; ++v) {
          wl[v] = qr_[axis][v].data() + base + (ng_ - 1);
          wr[v] = ql_[axis][v].data() + base + ng_;
        }
        ok = Physics::interface_flux_n(true, static_cast<std::size_t>(n + 1),
                                       axis, wl.data(), wr.data(), f.data(),
                                       ctx) &&
             ok;
      }
    }
    return ok;
  }

  void recover() {
    const auto& u = s_.block(0).cons();
    std::array<const double*, kNc> up{};
    std::array<double*, kNp> wp{};
    for (int j = 0; j < ny_; ++j) {
      for (int v = 0; v < kNc; ++v) {
        up[v] = u.var(v).data() + u.cell_index(0, ng_ + j, ng_);
      }
      for (int v = 0; v < kNp; ++v) {
        wp[v] = w_[v].data() + static_cast<std::size_t>(j) * nx_;
      }
      Physics::cons_to_prim_n(true, static_cast<std::size_t>(nx_), up.data(),
                              wp.data(), s_.options().physics, c2p_stats_);
    }
  }

  void combine() {
    const auto& u = s_.block(0).cons();
    for (int v = 0; v < kNc; ++v) {
      for (int j = 0; j < ny_; ++j) {
        const std::size_t o = static_cast<std::size_t>(j) * nx_;
        rshc::solver::rk_combine_n(
            true, static_cast<std::size_t>(nx_), 0.75,
            u.var(v).data() + u.cell_index(0, ng_ + j, ng_), 0.25,
            y_[v].data() + o, 0.25 * cfl_dt_, z_[v].data() + o);
      }
    }
  }

  rshc::solver::FvSolver<Physics>& s_;
  bool time_ghosts_;
  int ng_ = 0, nx_ = 0, ny_ = 0, tx_ = 0, ty_ = 0;
  double cfl_dt_ = 1.0e-3;
  std::array<std::array<std::vector<double>, kNp>, 2> ql_, qr_;
  std::array<std::vector<double>, kNp> qt_, w_;
  std::array<std::vector<double>, kNc> f_, y_, z_;
  rshc::solver::C2PStats c2p_stats_;
};

}  // namespace perfbench
