#pragma once
// Shared plumbing for the experiment harnesses (bench/exp_*): solver
// factories for the standard workloads, exact-solution error evaluation,
// and CSV emission. Every harness prints a Table to stdout and mirrors it
// to bench_results/<id>.csv for plotting.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/common/table.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace rshc::bench {

/// Print the table and mirror it to bench_results/<id>.csv. When the
/// environment asks for it (RSHC_DUMP_METRICS / RSHC_DUMP_TRACE), also
/// dump the metrics registry and the Chrome trace next to the CSV.
inline void emit(const Table& table, const std::string& id) {
  table.print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    table.write_csv_file("bench_results/" + id + ".csv");
    std::cout << "[csv: bench_results/" << id << ".csv]\n";
    obs::maybe_dump("bench_results/" + id);
  }
  std::cout << std::endl;
}

/// True when every block of `a` and `b` holds the same cons and prims bit
/// for bit (the schedule harnesses' end-state check).
template <typename Solver>
bool same_state(const Solver& a, const Solver& b) {
  if (a.num_blocks() != b.num_blocks()) return false;
  auto same = [](const mesh::FieldArray& x, const mesh::FieldArray& y) {
    return x.flat().size() == y.flat().size() &&
           std::memcmp(x.flat().data(), y.flat().data(),
                       x.flat().size() * sizeof(double)) == 0;
  };
  for (int blk = 0; blk < a.num_blocks(); ++blk) {
    if (!same(a.block(blk).cons(), b.block(blk).cons()) ||
        !same(a.block(blk).prim(), b.block(blk).prim())) {
      return false;
    }
  }
  return true;
}

/// Configured SRHD shock-tube solver on [0, 1].
inline std::unique_ptr<solver::SrhdSolver> make_tube_solver(
    const problems::ShockTube& st, long long n, recon::Method recon_m,
    riemann::Solver riemann_s, double cfl = 0.4) {
  const mesh::Grid grid = mesh::Grid::make_1d(n, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon_m;
  opt.cfl = cfl;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  opt.physics.riemann = riemann_s;
  auto s = std::make_unique<solver::SrhdSolver>(grid, opt);
  s->initialize(problems::shock_tube_ic(st));
  return s;
}

struct TubeErrors {
  double l1_rho = 0.0;
  double l1_vx = 0.0;
};

/// L1 errors of a completed tube run against the exact Riemann solution.
inline TubeErrors tube_errors(solver::SrhdSolver& s,
                              const problems::ShockTube& st) {
  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  const auto& g = s.grid();
  const auto rho = s.gather_prim_var(srhd::kRho);
  const auto vx = s.gather_prim_var(srhd::kVx);
  std::vector<double> rho_ref(rho.size());
  std::vector<double> vx_ref(rho.size());
  for (std::size_t i = 0; i < rho.size(); ++i) {
    const auto e = exact.sample(
        (g.cell_center(0, static_cast<long long>(i)) - st.x_split) /
        s.time());
    rho_ref[i] = e.rho;
    vx_ref[i] = e.v;
  }
  return {analysis::l1_error(rho, rho_ref), analysis::l1_error(vx, vx_ref)};
}

/// Smooth-wave solver on a periodic [0, 1] grid.
inline std::unique_ptr<solver::SrhdSolver> make_wave_solver(
    long long n, recon::Method recon_m, double cfl = 0.2) {
  const mesh::Grid grid = mesh::Grid::make_1d(n, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon_m;
  opt.cfl = cfl;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  auto s = std::make_unique<solver::SrhdSolver>(grid, opt);
  s->initialize(problems::smooth_wave_ic({}));
  return s;
}

inline double wave_l1_error(solver::SrhdSolver& s) {
  const problems::SmoothWave wave{};
  const auto rho = s.gather_prim_var(srhd::kRho);
  std::vector<double> exact(rho.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = problems::smooth_wave_exact_rho(
        wave, s.grid().cell_center(0, static_cast<long long>(i)), s.time());
  }
  return analysis::l1_error(rho, exact);
}

}  // namespace rshc::bench
