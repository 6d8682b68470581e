#include "rshc/amr/two_level.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rshc::amr {
namespace {

constexpr int kRatio = 2;  // refinement factor

long long clearance_cells(const TwoLevelSrhdSolver::Options& opt) {
  return recon::ghost_width(opt.recon) / kRatio + 1;
}

}  // namespace

TwoLevelSrhdSolver::TwoLevelSrhdSolver(const mesh::Grid& coarse_grid,
                                       Options opt, RefineRegion region)
    : coarse_grid_(coarse_grid), region_(region) {
  const int ndim = coarse_grid.ndim();
  const long long clearance = clearance_cells(opt);
  for (int a = 0; a < 3; ++a) {
    if (a >= ndim) {
      region_.lo[static_cast<std::size_t>(a)] = 0;
      region_.hi[static_cast<std::size_t>(a)] = 1;
      continue;
    }
    const long long lo = region_.lo[static_cast<std::size_t>(a)];
    const long long hi = region_.hi[static_cast<std::size_t>(a)];
    RSHC_REQUIRE(lo < hi, "refine region must be non-empty");
    RSHC_REQUIRE(lo >= 0 && hi <= coarse_grid.extent(a),
                 "refine region outside the grid");
    // Fine ghosts reach past the region; demand clearance from the domain
    // edge so prolongation always lands on valid coarse data.
    RSHC_REQUIRE(lo >= clearance && hi + clearance <= coarse_grid.extent(a),
                 "refine region too close to the domain boundary");
  }
  coarse_ = std::make_unique<solver::SrhdSolver>(coarse_grid_, opt);
  build_fine(region_, nullptr, region_);
}

void TwoLevelSrhdSolver::build_fine(const RefineRegion& region,
                                    const solver::SrhdSolver* old_fine,
                                    const RefineRegion& old_region) {
  (void)old_region;  // geometry is recovered from old_fine's grid
  const int ndim = coarse_grid_.ndim();
  std::array<long long, 3> fine_n = {1, 1, 1};
  std::array<double, 3> fine_lo = {0.0, 0.0, 0.0};
  std::array<double, 3> fine_hi = {1.0, 1.0, 1.0};
  for (int a = 0; a < ndim; ++a) {
    const long long lo = region.lo[static_cast<std::size_t>(a)];
    const long long hi = region.hi[static_cast<std::size_t>(a)];
    fine_n[static_cast<std::size_t>(a)] = (hi - lo) * kRatio;
    fine_lo[static_cast<std::size_t>(a)] =
        coarse_grid_.xmin(a) + static_cast<double>(lo) * coarse_grid_.dx(a);
    fine_hi[static_cast<std::size_t>(a)] =
        coarse_grid_.xmin(a) + static_cast<double>(hi) * coarse_grid_.dx(a);
  }

  Options fine_opt = coarse_->options();
  fine_opt.blocks = {1, 1, 1};
  auto new_grid =
      std::make_unique<mesh::Grid>(ndim, fine_n, fine_lo, fine_hi);
  auto new_fine = std::make_unique<solver::SrhdSolver>(*new_grid, fine_opt);
  // The fine level's "boundaries" are all coarse-fine interfaces.
  new_fine->set_ghost_filler([this](int b) { prolongate_fine_ghosts(b); });

  if (old_fine == nullptr) {
    fine_grid_ = std::move(new_grid);
    fine_ = std::move(new_fine);
    region_ = region;
    return;
  }

  // Regrid data transfer: copy old fine data where the regions overlap
  // (cell centers coincide exactly — both levels are factor-2 children of
  // the same coarse grid), prolongate from coarse elsewhere.
  const double t = coarse_->time();
  const auto& og = old_fine->grid();
  auto transfer = [this, old_fine, &og, ndim](double x, double y, double z) {
    const double pos[3] = {x, y, z};
    bool in_old = true;
    long long fidx[3] = {0, 0, 0};
    for (int a = 0; a < ndim; ++a) {
      if (pos[a] < og.xmin(a) || pos[a] > og.xmax(a)) {
        in_old = false;
        break;
      }
      fidx[a] = std::clamp<long long>(
          static_cast<long long>(
              std::floor((pos[a] - og.xmin(a)) / og.dx(a))),
          0, og.extent(a) - 1);
    }
    if (in_old) return old_fine->prim_at(fidx[0], fidx[1], fidx[2]);
    long long cidx[3] = {0, 0, 0};
    for (int a = 0; a < ndim; ++a) {
      cidx[a] = std::clamp<long long>(
          static_cast<long long>(std::floor(
              (pos[a] - coarse_grid_.xmin(a)) / coarse_grid_.dx(a))),
          0, coarse_grid_.extent(a) - 1);
    }
    return coarse_->prim_at(cidx[0], cidx[1], cidx[2]);
  };

  // Swap in the new level before initialize: the ghost filler consults
  // this->region_/fine_ geometry. The old level stays alive in new_fine's
  // caller frame (we still hold it via `old_fine` until initialize ends).
  auto keep_old_alive = std::move(fine_);
  auto keep_old_grid = std::move(fine_grid_);
  fine_grid_ = std::move(new_grid);
  fine_ = std::move(new_fine);
  region_ = region;
  fine_->initialize(transfer);
  fine_->set_time(t);
}

void TwoLevelSrhdSolver::initialize(
    const std::function<Prim(double, double, double)>& fn) {
  coarse_->initialize(fn);
  fine_->initialize(fn);
  restrict_to_coarse();
  steps_since_regrid_ = 0;
}

void TwoLevelSrhdSolver::enable_adaptivity(int interval, double threshold,
                                           long long padding) {
  RSHC_REQUIRE(interval >= 0, "regrid interval must be >= 0");
  RSHC_REQUIRE(threshold > 0.0, "regrid threshold must be positive");
  RSHC_REQUIRE(padding >= 1, "regrid padding must be >= 1");
  regrid_interval_ = interval;
  regrid_threshold_ = threshold;
  regrid_padding_ = padding;
}

amr::RefineRegion TwoLevelSrhdSolver::flagged_region() const {
  // Flag coarse cells whose relative density jump to either neighbour
  // exceeds the threshold (per active axis); return the padded bounding
  // box, clamped to the legal clearance. Falls back to the current region
  // when nothing is flagged.
  const int ndim = coarse_grid_.ndim();
  const auto rho = coarse_->gather_prim_var(srhd::kRho);
  const long long nx = coarse_grid_.extent(0);
  const long long ny = coarse_grid_.extent(1);
  const long long nz = coarse_grid_.extent(2);
  auto at = [&](long long i, long long j, long long k) {
    return rho[static_cast<std::size_t>((k * ny + j) * nx + i)];
  };

  RefineRegion box;
  bool any = false;
  for (int a = 0; a < 3; ++a) {
    box.lo[static_cast<std::size_t>(a)] =
        std::numeric_limits<long long>::max();
    box.hi[static_cast<std::size_t>(a)] =
        std::numeric_limits<long long>::min();
  }
  for (long long k = 0; k < nz; ++k) {
    for (long long j = 0; j < ny; ++j) {
      for (long long i = 0; i < nx; ++i) {
        const double c = at(i, j, k);
        double jump = 0.0;
        if (i > 0) jump = std::max(jump, std::abs(c - at(i - 1, j, k)));
        if (i + 1 < nx) jump = std::max(jump, std::abs(c - at(i + 1, j, k)));
        if (ndim >= 2) {
          if (j > 0) jump = std::max(jump, std::abs(c - at(i, j - 1, k)));
          if (j + 1 < ny)
            jump = std::max(jump, std::abs(c - at(i, j + 1, k)));
        }
        if (ndim >= 3) {
          if (k > 0) jump = std::max(jump, std::abs(c - at(i, j, k - 1)));
          if (k + 1 < nz)
            jump = std::max(jump, std::abs(c - at(i, j, k + 1)));
        }
        if (jump / std::max(c, 1e-300) < regrid_threshold_) continue;
        any = true;
        const long long idx[3] = {i, j, k};
        for (int a = 0; a < 3; ++a) {
          box.lo[static_cast<std::size_t>(a)] =
              std::min(box.lo[static_cast<std::size_t>(a)], idx[a]);
          box.hi[static_cast<std::size_t>(a)] =
              std::max(box.hi[static_cast<std::size_t>(a)], idx[a] + 1);
        }
      }
    }
  }
  if (!any) return region_;

  const long long clearance = clearance_cells(coarse_->options());
  for (int a = 0; a < 3; ++a) {
    if (a >= ndim) {
      box.lo[static_cast<std::size_t>(a)] = 0;
      box.hi[static_cast<std::size_t>(a)] = 1;
      continue;
    }
    box.lo[static_cast<std::size_t>(a)] = std::clamp<long long>(
        box.lo[static_cast<std::size_t>(a)] - regrid_padding_, clearance,
        coarse_grid_.extent(a) - clearance - 1);
    box.hi[static_cast<std::size_t>(a)] = std::clamp<long long>(
        box.hi[static_cast<std::size_t>(a)] + regrid_padding_,
        box.lo[static_cast<std::size_t>(a)] + 1,
        coarse_grid_.extent(a) - clearance);
  }
  return box;
}

void TwoLevelSrhdSolver::regrid_now() {
  const RefineRegion target = flagged_region();
  const bool same = target.lo == region_.lo && target.hi == region_.hi;
  steps_since_regrid_ = 0;
  if (same) return;
  build_fine(target, fine_.get(), region_);
  restrict_to_coarse();
}

void TwoLevelSrhdSolver::prolongate_fine_ghosts(int block) {
  // Piecewise-constant injection: each fine ghost cell takes the
  // primitives of the coarse cell containing its center. Refreshed every
  // stage through the ghost-filler hook, so the fine level always sees
  // the coarse level's current state.
  mesh::Block& blk = fine_->block(block);
  auto& w = blk.prim();
  const auto& g = coarse_grid_;
  auto coarse_index = [&](int axis, double x) {
    long long i = static_cast<long long>(
        std::floor((x - g.xmin(axis)) / g.dx(axis)));
    return std::clamp<long long>(i, 0, g.extent(axis) - 1);
  };
  for (int k = 0; k < blk.total(2); ++k) {
    for (int j = 0; j < blk.total(1); ++j) {
      for (int i = 0; i < blk.total(0); ++i) {
        const bool interior = i >= blk.begin(0) && i < blk.end(0) &&
                              j >= blk.begin(1) && j < blk.end(1) &&
                              k >= blk.begin(2) && k < blk.end(2);
        if (interior) continue;
        const long long ci = coarse_index(0, blk.center(0, i));
        const long long cj =
            g.ndim() >= 2 ? coarse_index(1, blk.center(1, j)) : 0;
        const long long ck =
            g.ndim() >= 3 ? coarse_index(2, blk.center(2, k)) : 0;
        const Prim p = coarse_->prim_at(ci, cj, ck);
        solver::SrhdPhysics::store_prim(w, k, j, i, p);
      }
    }
  }
}

void TwoLevelSrhdSolver::restrict_to_coarse() {
  // Average the 2^ndim fine conservatives under each covered coarse cell,
  // overwrite the coarse state, and re-derive its primitives.
  const int ndim = coarse_grid_.ndim();
  const mesh::Block& fb = fine_->block(0);
  const auto& fu = fb.cons();
  solver::C2PStats scratch_stats;
  for (int b = 0; b < coarse_->num_blocks(); ++b) {
    mesh::Block& cb = coarse_->block(b);
    auto& cu = cb.cons();
    auto& cw = cb.prim();
    const auto& e = cb.extents();
    for (int k = cb.begin(2); k < cb.end(2); ++k) {
      for (int j = cb.begin(1); j < cb.end(1); ++j) {
        for (int i = cb.begin(0); i < cb.end(0); ++i) {
          const long long gi = e.lo[0] + (i - cb.ghost(0));
          const long long gj = e.lo[1] + (j - cb.ghost(1));
          const long long gk = e.lo[2] + (k - cb.ghost(2));
          if (gi < region_.lo[0] || gi >= region_.hi[0] ||
              gj < region_.lo[1] || gj >= region_.hi[1] ||
              gk < region_.lo[2] || gk >= region_.hi[2]) {
            continue;
          }
          // Fine cells covering this coarse cell.
          const long long fi0 = (gi - region_.lo[0]) * kRatio;
          const long long fj0 = (gj - region_.lo[1]) * kRatio;
          const long long fk0 = (gk - region_.lo[2]) * kRatio;
          solver::SrhdPhysics::Cons avg;
          int count = 0;
          for (int dk = 0; dk < (ndim >= 3 ? kRatio : 1); ++dk) {
            for (int dj = 0; dj < (ndim >= 2 ? kRatio : 1); ++dj) {
              for (int di = 0; di < kRatio; ++di) {
                avg += solver::SrhdPhysics::load_cons(
                    fu, static_cast<int>(fk0) + dk + fb.ghost(2),
                    static_cast<int>(fj0) + dj + fb.ghost(1),
                    static_cast<int>(fi0) + di + fb.ghost(0));
                ++count;
              }
            }
          }
          avg = (1.0 / count) * avg;
          solver::SrhdPhysics::store_cons(cu, k, j, i, avg);
          const Prim p = solver::SrhdPhysics::to_prim(
              avg, coarse_->options().physics, scratch_stats,
              solver::SrhdPhysics::load_prim(cw, k, j, i));
          solver::SrhdPhysics::store_prim(cw, k, j, i, p);
        }
      }
    }
  }
  coarse_->fill_all_ghosts();
}

double TwoLevelSrhdSolver::compute_dt() {
  return std::min(coarse_->compute_dt(), fine_->compute_dt());
}

void TwoLevelSrhdSolver::step(double dt) {
  // Fine first (its stage-wise ghost prolongation reads the coarse state
  // at time t), then coarse, then restriction reconciles the overlap.
  fine_->step(dt);
  coarse_->step(dt);
  restrict_to_coarse();
  if (regrid_interval_ > 0 && ++steps_since_regrid_ >= regrid_interval_) {
    regrid_now();
  }
}

int TwoLevelSrhdSolver::advance_to(double t_end, int max_steps) {
  int steps = 0;
  while (time() < t_end && steps < max_steps) {
    double dt = compute_dt();
    if (time() + dt > t_end) dt = t_end - time();
    step(dt);
    ++steps;
  }
  return steps;
}

}  // namespace rshc::amr
