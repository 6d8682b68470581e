#include "rshc/serve/scenario.hpp"

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "rshc/analysis/norms.hpp"
#include "rshc/common/error.hpp"
#include "rshc/io/checkpoint.hpp"
#include "rshc/mesh/boundary.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/state.hpp"

namespace rshc::serve {
namespace {

// One catalog row: how a problem key maps onto a grid and boundary
// conditions. Initial data and gamma are bound per-problem in make_engine.
struct CatalogEntry {
  std::string_view key;
  int ndim = 1;
  mesh::BcType bc = mesh::BcType::kOutflow;
  double xmin = 0.0;  ///< per-axis domain bounds (square in 2D)
  double xmax = 1.0;
};

constexpr CatalogEntry kSrhdCatalog[] = {
    {"sod", 1, mesh::BcType::kOutflow, 0.0, 1.0},
    {"mm1", 1, mesh::BcType::kOutflow, 0.0, 1.0},
    {"mm2", 1, mesh::BcType::kOutflow, 0.0, 1.0},
    {"smooth", 1, mesh::BcType::kPeriodic, 0.0, 1.0},
    {"kh", 2, mesh::BcType::kPeriodic, -0.5, 0.5},
    {"blast2d", 2, mesh::BcType::kOutflow, -1.0, 1.0},
};

constexpr CatalogEntry kSrmhdCatalog[] = {
    {"balsara1", 1, mesh::BcType::kOutflow, 0.0, 1.0},
    {"mhd_blast", 2, mesh::BcType::kOutflow, -1.0, 1.0},
    {"field_loop", 2, mesh::BcType::kPeriodic, -0.5, 0.5},
};

const CatalogEntry* find_entry(PhysicsKind physics, std::string_view problem) {
  if (physics == PhysicsKind::kSrhd) {
    for (const auto& e : kSrhdCatalog) {
      if (e.key == problem) return &e;
    }
    return nullptr;
  }
  for (const auto& e : kSrmhdCatalog) {
    if (e.key == problem) return &e;
  }
  return nullptr;
}

mesh::Grid make_grid(const CatalogEntry& e, long long n) {
  if (e.ndim == 1) return mesh::Grid::make_1d(n, e.xmin, e.xmax);
  return mesh::Grid::make_2d(n, n, e.xmin, e.xmax, e.xmin, e.xmax);
}

template <typename Physics>
class EngineImpl final : public ScenarioEngine {
 public:
  using Ic = std::function<typename Physics::Prim(double, double, double)>;
  using Options = typename solver::FvSolver<Physics>::Options;

  EngineImpl(const mesh::Grid& grid, const Options& opt, Ic ic,
             std::optional<problems::ShockTube> tube)
      : ic_(std::move(ic)), tube_(std::move(tube)), solver_(grid, opt) {}

  void initialize() override { solver_.initialize(ic_); }

  void restore(const std::string& path) override {
    io::read_checkpoint<Physics>(path, solver_);
  }

  void checkpoint(const std::string& path) override {
    solver_.sync_from_device();  // no-op unless device resident
    io::write_checkpoint<Physics>(path, solver_);
  }

  void step() override { solver_.step(solver_.compute_dt()); }

  [[nodiscard]] double time() const override { return solver_.time(); }

  [[nodiscard]] double validation_error(RiemannCache& cache) override {
    if constexpr (std::is_same_v<Physics, solver::SrhdPhysics>) {
      if (!tube_ || solver_.time() <= 0.0) return -1.0;
      const auto ref = cache.lookup(
          {tube_->left.rho, tube_->left.vx, tube_->left.p},
          {tube_->right.rho, tube_->right.vx, tube_->right.p}, tube_->gamma);
      solver_.sync_from_device();
      const std::vector<double> rho = solver_.gather_prim_var(srhd::kRho);
      std::vector<double> exact(rho.size());
      const auto& g = solver_.grid();
      const double t = solver_.time();
      for (std::size_t i = 0; i < rho.size(); ++i) {
        const double x = g.cell_center(0, static_cast<long long>(i));
        exact[i] = ref->sample((x - tube_->x_split) / t).rho;
      }
      return analysis::l1_error(rho, exact);
    } else {
      (void)cache;
      return -1.0;
    }
  }

 private:
  Ic ic_;
  std::optional<problems::ShockTube> tube_;
  solver::FvSolver<Physics> solver_;
};

std::unique_ptr<ScenarioEngine> make_srhd_engine(const JobSpec& spec,
                                                 const CatalogEntry& e) {
  using Options = solver::SrhdSolver::Options;
  Options opt;
  opt.recon = spec.recon;
  opt.cfl = spec.cfl;
  opt.bc = mesh::BoundarySpec::all(e.bc);
  opt.physics.riemann = spec.riemann;

  std::optional<problems::ShockTube> tube;
  problems::SrhdIc ic;
  if (spec.problem == "sod") {
    tube = problems::sod();
  } else if (spec.problem == "mm1") {
    tube = problems::marti_muller_1();
  } else if (spec.problem == "mm2") {
    tube = problems::marti_muller_2();
  } else if (spec.problem == "smooth") {
    opt.physics.eos = eos::IdealGas{5.0 / 3.0};
    ic = problems::smooth_wave_ic(problems::SmoothWave{});
  } else if (spec.problem == "kh") {
    opt.physics.eos = eos::IdealGas{4.0 / 3.0};
    ic = problems::kelvin_helmholtz_ic(problems::KelvinHelmholtz{});
  } else {  // blast2d (catalog-checked by the caller)
    opt.physics.eos = eos::IdealGas{5.0 / 3.0};
    ic = problems::blast2d_ic(problems::Blast2d{});
  }
  if (tube) {
    opt.physics.eos = eos::IdealGas{tube->gamma};
    ic = problems::shock_tube_ic(*tube);
  }
  return std::make_unique<EngineImpl<solver::SrhdPhysics>>(
      make_grid(e, spec.resolution), opt, std::move(ic), std::move(tube));
}

std::unique_ptr<ScenarioEngine> make_srmhd_engine(const JobSpec& spec,
                                                  const CatalogEntry& e) {
  using Options = solver::SrmhdSolver::Options;
  Options opt;
  opt.recon = spec.recon;
  opt.cfl = spec.cfl;
  opt.bc = mesh::BoundarySpec::all(e.bc);

  problems::SrmhdIc ic;
  if (spec.problem == "balsara1") {
    const auto tube = problems::balsara_1();
    opt.physics.eos = eos::IdealGas{tube.gamma};
    ic = problems::mhd_shock_tube_ic(tube);
  } else if (spec.problem == "mhd_blast") {
    opt.physics.eos = eos::IdealGas{5.0 / 3.0};
    ic = problems::mhd_blast2d_ic(problems::MhdBlast2d{});
  } else {  // field_loop (catalog-checked by the caller)
    opt.physics.eos = eos::IdealGas{5.0 / 3.0};
    ic = problems::field_loop_ic(problems::FieldLoop{});
  }
  return std::make_unique<EngineImpl<solver::SrmhdPhysics>>(
      make_grid(e, spec.resolution), opt, std::move(ic), std::nullopt);
}

}  // namespace

bool known_problem(PhysicsKind physics, std::string_view problem) {
  return find_entry(physics, problem) != nullptr;
}

int problem_ndim(PhysicsKind physics, std::string_view problem) {
  const auto* e = find_entry(physics, problem);
  return e != nullptr ? e->ndim : 0;
}

long long spec_zones(const JobSpec& spec) {
  const int nd = problem_ndim(spec.physics, spec.problem);
  if (nd == 0 || spec.resolution <= 0) return 0;
  long long zones = spec.resolution;
  for (int a = 1; a < nd; ++a) zones *= spec.resolution;
  return zones;
}

bool validation_supported(const JobSpec& spec) {
  if (spec.physics != PhysicsKind::kSrhd) return false;
  return spec.problem == "sod" || spec.problem == "mm1" ||
         spec.problem == "mm2";
}

std::unique_ptr<ScenarioEngine> make_engine(const JobSpec& spec) {
  const auto* e = find_entry(spec.physics, spec.problem);
  RSHC_REQUIRE(e != nullptr, "unknown scenario problem: " + spec.problem);
  if (spec.physics == PhysicsKind::kSrhd) return make_srhd_engine(spec, *e);
  return make_srmhd_engine(spec, *e);
}

}  // namespace rshc::serve
