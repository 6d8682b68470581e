#pragma once
// Test-only per-pencil reference stepper: the oracle the bitwise pipeline
// suites (test_rhs_pipeline, test_scheme_matrix, test_device_pipeline)
// compare the library's batched host and device pipelines against.
//
// It advances an FvSolver's state with the straightforward per-pencil
// arithmetic: gather one pencil per primitive variable, recon::reconstruct,
// limit_face_state on both face states, Physics::interface_flux per
// interface, accumulate -flux into the left cell and +flux into the right
// cell as each interface is visited, then the RK combination and a per-zone
// Physics::to_prim warm-started from the zone's old prims (as the batched
// kernels are), and its own GLM psi damping loop at the end of the step.
// None of this shares code with core::rhs_batched_range /
// core::update_batched / core::post_step_slabs beyond the per-interface
// and per-zone physics functions (and srmhd::glm_damping_factor), so a
// batched kernel that reorders an accumulation or reassociates the RK
// combination, or a schedule that damps psi twice, shows up here as a bit
// difference.
//
// The oracle drives the solver only through its public API: block(b),
// grid() and options() for the state, fill_all_ghosts() for the exchange
// (so multi-block grids and restricted solvers with an installed ghost
// filler work unchanged) and set_time() for the clock. It keeps its own RK
// reference state, flux accumulator and con2prim counters; the solver it
// drives must not be stepped through its own entry points in between.
//
// This header compiles under the tree-default flags of the test target
// that includes it — the same flags the per-zone physics functions see
// everywhere outside the kernel TUs.

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "rshc/check/check.hpp"
#include "rshc/mesh/block.hpp"
#include "rshc/mesh/field_array.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::testsupport {

template <typename Physics>
class PencilReference {
 public:
  using Prim = typename Physics::Prim;
  using Cons = typename Physics::Cons;

  /// `s` must be initialized and must outlive the oracle.
  explicit PencilReference(solver::FvSolver<Physics>& s) : s_(s) {
    int max_extent = 0;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      guess_.emplace_back(Physics::kNumPrim, blk.total(2), blk.total(1),
                          blk.total(0));
      max_extent =
          std::max({max_extent, blk.total(0), blk.total(1), blk.total(2)});
    }
    const auto plen = static_cast<std::size_t>(max_extent);
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      q_[v].resize(plen);
      ql_[v].resize(plen);
      qr_[v].resize(plen);
    }
  }

  /// Block b's prims as they were before the oracle's last con2prim on it:
  /// the guesses that con2prim started from. A kernel run on the same
  /// conservatives with these prims as its guess reproduces the oracle's
  /// prims bit for bit.
  [[nodiscard]] const mesh::FieldArray& last_c2p_guess(int b) const {
    return guess_[static_cast<std::size_t>(b)];
  }

  /// CFL-limited time step: per-zone max_speed over every interior cell.
  [[nodiscard]] double reference_dt() const {
    const auto& grid = s_.grid();
    const auto& opt = s_.options();
    double vmax = 1e-30;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      const auto& w = blk.prim();
      for (int k = blk.begin(2); k < blk.end(2); ++k) {
        for (int j = blk.begin(1); j < blk.end(1); ++j) {
          for (int i = blk.begin(0); i < blk.end(0); ++i) {
            const Prim p = Physics::load_prim(w, k, j, i);
            vmax = std::max(vmax,
                            Physics::max_speed(p, opt.physics, grid.ndim()));
          }
        }
      }
    }
    return opt.cfl * grid.min_dx() / vmax;
  }

  /// One serial time step: save the RK reference state, then per stage
  /// exchange every block, rhs every block, update every block; psi
  /// damping per block at the end.
  void reference_step(double dt) {
    const auto& opt = s_.options();
    const int nb = s_.num_blocks();
    for (int b = 0; b < nb; ++b) {
      const auto src = s_.block(b).cons().flat();
      auto dst = u0_[static_cast<std::size_t>(b)].flat();
      std::copy(src.begin(), src.end(), dst.begin());
    }
    for (int stage = 0; stage < time::num_stages(opt.integrator); ++stage) {
      const auto coeffs = time::stage_coeffs(opt.integrator, stage);
      s_.fill_all_ghosts();
      for (int b = 0; b < nb; ++b) compute_rhs_pencil(b);
      for (int b = 0; b < nb; ++b) update_block_pencil(b, coeffs, dt);
    }
    if constexpr (std::is_same_v<Physics, solver::SrmhdPhysics>) {
      const double factor =
          srmhd::glm_damping_factor(opt.physics.glm, dt, s_.grid().min_dx());
      if (factor < 1.0) {
        for (int b = 0; b < nb; ++b) {
          auto& blk = s_.block(b);
          for (double& psi : blk.cons().var(srmhd::kPsi)) psi *= factor;
          for (double& psi : blk.prim().var(srmhd::kPsi)) psi *= factor;
        }
      }
    }
    s_.set_time(s_.time() + dt);
  }

  /// Advance to t_end with adaptive dt (the FvSolver::advance_to loop);
  /// returns steps taken.
  int reference_advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (s_.time() < t_end && steps < max_steps) {
      double dt = reference_dt();
      if (s_.time() + dt > t_end) dt = t_end - s_.time();
      reference_step(dt);
      ++steps;
    }
    return steps;
  }

  /// Con2prim counters accumulated over every reference step.
  [[nodiscard]] const solver::C2PStats& c2p_stats() const { return stats_; }

 private:
  void compute_rhs_pencil(int b) {
    const auto& grid = s_.grid();
    const auto& opt = s_.options();
    mesh::Block& blk = s_.block(b);
    mesh::FieldArray& du = du_[static_cast<std::size_t>(b)];
    du.fill(0.0);

    const auto& w = blk.prim();
    for (int axis = 0; axis < grid.ndim(); ++axis) {
      const double inv_dx = 1.0 / grid.dx(axis);
      const int n = blk.total(axis);
      // Transverse axes (interior ranges only; corners are never needed).
      int a1 = -1;
      int a2 = -1;
      for (int a = 0; a < 3; ++a) {
        if (a == axis) continue;
        (a1 < 0 ? a1 : a2) = a;
      }

      for (int t2 = blk.begin(a2); t2 < blk.end(a2); ++t2) {
        for (int t1 = blk.begin(a1); t1 < blk.end(a1); ++t1) {
          auto local = [&](int f) {
            int idx[3];
            idx[axis] = f;
            idx[a1] = t1;
            idx[a2] = t2;
            return std::array<int, 3>{idx[0], idx[1], idx[2]};  // (i, j, k)
          };

          // Load the pencil and reconstruct every primitive variable.
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            for (int f = 0; f < n; ++f) {
              const auto c = local(f);
              q_[v][static_cast<std::size_t>(f)] = w(v, c[2], c[1], c[0]);
            }
            recon::reconstruct(opt.recon,
                               {q_[v].data(), static_cast<std::size_t>(n)},
                               {ql_[v].data(), static_cast<std::size_t>(n)},
                               {qr_[v].data(), static_cast<std::size_t>(n)});
          }

          // Interfaces f+1/2 for f in [begin-1, end-1]: left state is the
          // right face of cell f, right state the left face of cell f+1.
          double comp[Physics::kNumPrim];
          for (int f = blk.begin(axis) - 1; f < blk.end(axis); ++f) {
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = qr_[v][static_cast<std::size_t>(f)];
            }
            Prim wl = Physics::prim_from_components(comp);
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = ql_[v][static_cast<std::size_t>(f) + 1];
            }
            Prim wr = Physics::prim_from_components(comp);
            Physics::limit_face_state(wl, opt.physics);
            Physics::limit_face_state(wr, opt.physics);

            const Cons flux =
                Physics::interface_flux(wl, wr, axis, opt.physics);
#if RSHC_CHECKS_ENABLED
            {
              const auto cf = local(f);
              RSHC_CHECK_PRIM("flux", wl, b, cf[0], cf[1], cf[2]);
              RSHC_CHECK_PRIM("flux", wr, b, cf[0], cf[1], cf[2]);
              RSHC_CHECK_CONS("flux", flux, b, cf[0], cf[1], cf[2]);
            }
#endif

            if (f >= blk.begin(axis)) {
              const auto c = local(f);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += (-inv_dx) * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
            if (f + 1 < blk.end(axis)) {
              const auto c = local(f + 1);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += inv_dx * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
          }
        }
      }
    }
  }

  void update_block_pencil(int b, time::StageCoeffs coeffs, double dt) {
    const auto& opt = s_.options();
    mesh::Block& blk = s_.block(b);
    const mesh::FieldArray& u0 = u0_[static_cast<std::size_t>(b)];
    const mesh::FieldArray& du = du_[static_cast<std::size_t>(b)];
    auto& u = blk.cons();
    auto& w = blk.prim();
    // RK convex combination into the conservative field.
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Cons ref = Physics::load_cons(u0, k, j, i);
          const Cons cur = Physics::load_cons(u, k, j, i);
          const Cons rhs = Physics::load_cons(du, k, j, i);
          const Cons next =
              coeffs.a * ref + coeffs.b * cur + (coeffs.c * dt) * rhs;
          Physics::store_cons(u, k, j, i, next);
        }
      }
    }
    // Primitive recovery reads back the freshly stored conservatives and
    // starts from the prims it overwrites.
    const auto old = w.flat();
    std::copy(old.begin(), old.end(),
              guess_[static_cast<std::size_t>(b)].flat().begin());
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Cons next = Physics::load_cons(u, k, j, i);
          const Prim p = Physics::to_prim(next, opt.physics, stats_,
                                          Physics::load_prim(w, k, j, i));
          RSHC_CHECK_PRIM("c2p", p, b, i, j, k);
          Physics::store_prim(w, k, j, i, p);
        }
      }
    }
  }

  solver::FvSolver<Physics>& s_;
  std::vector<mesh::FieldArray> u0_;  // RK reference state
  std::vector<mesh::FieldArray> du_;  // flux-difference accumulator
  std::vector<mesh::FieldArray> guess_;  // prims before the last con2prim
  // One pencil per primitive variable: [var][pencil index].
  std::array<std::vector<double>, Physics::kNumPrim> q_;
  std::array<std::vector<double>, Physics::kNumPrim> ql_;
  std::array<std::vector<double>, Physics::kNumPrim> qr_;
  solver::C2PStats stats_;
};

}  // namespace rshc::testsupport
