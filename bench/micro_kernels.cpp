// B1 — google-benchmark microbenchmarks of the hot per-zone kernels:
// reconstruction variants, Riemann solvers, prim<->cons maps, the GLM
// interface flux, the RK combination kernel, and the solver's host rhs
// phase. The *Batch rows time each
// batched kernel's scalar and simd variant on the same row, which gives the
// per-variant speed-up.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "rshc/problems/problems.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/con2prim.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/con2prim.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace {

using namespace rshc;

const eos::IdealGas kEos(5.0 / 3.0);

std::vector<double> random_pencil(std::size_t n, unsigned seed = 3) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 2.0);
  std::vector<double> q(n);
  for (auto& x : q) x = u(rng);
  return q;
}

void BM_Reconstruct(benchmark::State& state) {
  const auto method = static_cast<recon::Method>(state.range(0));
  const std::size_t n = 256;
  const auto q = random_pencil(n);
  std::vector<double> ql(n), qr(n);
  for (auto _ : state) {
    recon::reconstruct(method, q, ql, qr);
    benchmark::DoNotOptimize(ql.data());
    benchmark::DoNotOptimize(qr.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(std::string(recon::method_name(method)));
}
BENCHMARK(BM_Reconstruct)
    ->Arg(static_cast<int>(recon::Method::kPCM))
    ->Arg(static_cast<int>(recon::Method::kPLMMC))
    ->Arg(static_cast<int>(recon::Method::kPPM))
    ->Arg(static_cast<int>(recon::Method::kWENO5));

void BM_RiemannSrhd(benchmark::State& state) {
  const auto solver = static_cast<riemann::Solver>(state.range(0));
  const srhd::Prim wl{1.0, 0.2, 0.1, 0.0, 1.0};
  const srhd::Prim wr{0.5, -0.3, 0.0, 0.0, 0.2};
  for (auto _ : state) {
    auto f = riemann::solve_srhd(solver, wl, wr, 0, kEos);
    benchmark::DoNotOptimize(f);
  }
  state.SetLabel(std::string(riemann::solver_name(solver)));
}
BENCHMARK(BM_RiemannSrhd)
    ->Arg(static_cast<int>(riemann::Solver::kLLF))
    ->Arg(static_cast<int>(riemann::Solver::kHLL))
    ->Arg(static_cast<int>(riemann::Solver::kHLLC));

void BM_RiemannSrmhdHll(benchmark::State& state) {
  srmhd::Prim wl;
  wl.rho = 1.0; wl.vx = 0.2; wl.p = 1.0; wl.bx = 0.5; wl.by = 0.3;
  srmhd::Prim wr;
  wr.rho = 0.5; wr.vx = -0.1; wr.p = 0.4; wr.bx = 0.5; wr.by = -0.2;
  const srmhd::GlmParams glm;
  for (auto _ : state) {
    auto f = riemann::solve_srmhd_hll(wl, wr, 0, kEos, glm);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_RiemannSrmhdHll);

void BM_Con2PrimSrhd(benchmark::State& state) {
  // Lorentz factor from the benchmark argument (1..50).
  const double W = static_cast<double>(state.range(0));
  const double v = std::sqrt(1.0 - 1.0 / (W * W));
  const srhd::Prim w{1.0, 0.8 * v, 0.6 * v, 0.0, 0.5};
  const srhd::Cons u = srhd::prim_to_cons(w, kEos);
  for (auto _ : state) {
    auto r = srhd::cons_to_prim(u, kEos);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Con2PrimSrhd)->Arg(1)->Arg(2)->Arg(10)->Arg(50);

void BM_Con2PrimSrmhd(benchmark::State& state) {
  srmhd::Prim w;
  w.rho = 1.0; w.vx = 0.5; w.vy = 0.3; w.p = 0.5;
  w.bx = 0.6; w.by = -0.7; w.bz = 0.2;
  const srmhd::Cons u = srmhd::prim_to_cons(w, kEos);
  for (auto _ : state) {
    auto r = srmhd::cons_to_prim(u, kEos);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Con2PrimSrmhd);

void BM_PrimToConsBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto rho = random_pencil(n, 1);
  const auto p = random_pencil(n, 2);
  std::vector<double> vx(n, 0.3), vy(n, -0.2), vz(n, 0.1);
  std::vector<double> d(n), sx(n), sy(n), sz(n), tau(n);
  const bool simd = state.range(1) != 0;
  for (auto _ : state) {
    if (simd) {
      srhd::kernels::simd::prim_to_cons_n(n, rho.data(), vx.data(),
                                          vy.data(), vz.data(), p.data(),
                                          d.data(), sx.data(), sy.data(),
                                          sz.data(), tau.data(), 5.0 / 3.0);
    } else {
      srhd::kernels::scalar::prim_to_cons_n(n, rho.data(), vx.data(),
                                            vy.data(), vz.data(), p.data(),
                                            d.data(), sx.data(), sy.data(),
                                            sz.data(), tau.data(),
                                            5.0 / 3.0);
    }
    benchmark::DoNotOptimize(tau.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_PrimToConsBatch)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

/// One row of n Kelvin-Helmholtz-like primitive states (rho 1..2, a
/// +-0.5 shear in vx, a small vy perturbation, p = 1) in PrimVar order.
std::vector<std::vector<double>> kh_row(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<double>> w(srhd::kNumVars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w[srhd::kRho][i] = 1.0 + u(rng);
    w[srhd::kVx][i] = u(rng) < 0.5 ? -0.5 : 0.5;
    w[srhd::kVy][i] = 0.01 * (2.0 * u(rng) - 1.0);
    w[srhd::kVz][i] = 0.0;
    w[srhd::kP][i] = 1.0;
  }
  return w;
}

std::vector<const double*> row_ptrs(const std::vector<std::vector<double>>& w) {
  std::vector<const double*> out;
  for (const auto& v : w) out.push_back(v.data());
  return out;
}

/// A warm-start guess slab for the batched c2p rows: the exact prims `w`
/// with rho and p off by up to 1e-4 relative, standing in for the previous
/// step's state. The kernels overwrite their prim outputs, so the rows copy
/// this slab back in before every timed call; fed their own output, they
/// would time one-iteration restarts at the root instead of real solves.
/// The copy is a few memcpys, under 1 ns/zone.
std::vector<std::vector<double>> perturbed_guess(
    const std::vector<std::vector<double>>& w, int rho_var, int p_var,
    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1e-4, 1e-4);
  auto g = w;
  for (std::size_t i = 0; i < g[p_var].size(); ++i) {
    g[rho_var][i] *= 1.0 + u(rng);
    g[p_var][i] *= 1.0 + u(rng);
  }
  return g;
}

void restore(std::vector<std::vector<double>>& out,
             const std::vector<std::vector<double>>& guess) {
  for (std::size_t v = 0; v < guess.size(); ++v) {
    std::copy(guess[v].begin(), guess[v].end(), out[v].begin());
  }
}

/// Row lengths of the batched c2p rows: below, at and above each lane-group
/// width (8, 32), a 32+8 row, and two long rows.
void c2p_lengths(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{7, 8, 31, 32, 33, 40, 100, 128}, {0, 1}});
}

void BM_Con2PrimBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) != 0;
  const auto w = kh_row(n, 5);
  std::vector<std::vector<double>> u(srhd::kNumVars, std::vector<double>(n));
  srhd::kernels::simd::prim_to_cons_n(
      n, w[0].data(), w[1].data(), w[2].data(), w[3].data(), w[4].data(),
      u[0].data(), u[1].data(), u[2].data(), u[3].data(), u[4].data(),
      5.0 / 3.0);
  const auto guess = perturbed_guess(w, srhd::kRho, srhd::kP, 11);
  auto out = guess;
  const auto run = simd ? &srhd::kernels::simd::cons_to_prim_n
                        : &srhd::kernels::scalar::cons_to_prim_n;
  const srhd::Con2PrimOptions opt;
  long long iters = 0;
  for (auto _ : state) {
    restore(out, guess);
    auto r = run(n, u[0].data(), u[1].data(), u[2].data(), u[3].data(),
                 u[4].data(), out[0].data(), out[1].data(), out[2].data(),
                 out[3].data(), out[4].data(), 5.0 / 3.0, opt);
    iters += r.total_iterations;
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(out[4].data());
  }
  const auto zones = static_cast<int64_t>(state.iterations()) *
                     static_cast<int64_t>(n);
  state.SetItemsProcessed(zones);
  state.counters["iters_per_zone"] =
      static_cast<double>(iters) / static_cast<double>(zones);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_Con2PrimBatch)->Apply(c2p_lengths);

void BM_SrhdFacesBatch(benchmark::State& state) {
  const std::size_t n = 128;
  const bool simd = state.range(0) != 0;
  const auto solver = static_cast<riemann::Solver>(state.range(1));
  const auto wl = kh_row(n, 6);
  const auto wr = kh_row(n, 7);
  const auto lp = row_ptrs(wl);
  const auto rp = row_ptrs(wr);
  std::vector<std::vector<double>> f(srhd::kNumVars, std::vector<double>(n));
  std::vector<double*> fp;
  for (auto& v : f) fp.push_back(v.data());
  const auto run = simd ? &riemann::kernels::simd::srhd_faces_n
                        : &riemann::kernels::scalar::srhd_faces_n;
  for (auto _ : state) {
    run(n, 0, solver, lp.data(), rp.data(), fp.data(), kEos, 1e-14, 1e-16);
    benchmark::DoNotOptimize(f[srhd::kTau].data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(std::string(simd ? "simd " : "scalar ") +
                 std::string(riemann::solver_name(solver)));
}
BENCHMARK(BM_SrhdFacesBatch)
    ->Args({0, static_cast<int>(riemann::Solver::kHLL)})
    ->Args({1, static_cast<int>(riemann::Solver::kHLL)})
    ->Args({0, static_cast<int>(riemann::Solver::kHLLC)})
    ->Args({1, static_cast<int>(riemann::Solver::kHLLC)});

/// One row of n magnetized-blast-like primitive states in SRMHD PrimVar
/// order: rho 1..1.5, p from the hot interior (~1) or the ambient (~0.01)
/// gas, |v| up to 0.6 in the plane, a B field of about 0.1 along x plus a
/// small random part, and a small psi.
std::vector<std::vector<double>> blast_row(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<double>> w(srmhd::kNumVars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 0.6 * u(rng);
    const double phi = 2.0 * M_PI * u(rng);
    w[srmhd::kRho][i] = 1.0 + 0.5 * u(rng);
    w[srmhd::kVx][i] = v * std::cos(phi);
    w[srmhd::kVy][i] = v * std::sin(phi);
    w[srmhd::kVz][i] = 0.0;
    w[srmhd::kP][i] = (u(rng) < 0.5 ? 1.0 : 0.01) * (1.0 + 0.1 * u(rng));
    w[srmhd::kBx][i] = 0.1 + 0.02 * (2.0 * u(rng) - 1.0);
    w[srmhd::kBy][i] = 0.02 * (2.0 * u(rng) - 1.0);
    w[srmhd::kBz][i] = 0.0;
    w[srmhd::kPsi][i] = 1e-3 * (2.0 * u(rng) - 1.0);
  }
  return w;
}

void BM_Con2PrimSrmhdBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool simd = state.range(1) != 0;
  const auto w = blast_row(n, 9);
  std::vector<std::vector<double>> u(srmhd::kNumVars, std::vector<double>(n));
  using P = solver::SrmhdPhysics;
  for (std::size_t i = 0; i < n; ++i) {
    double q[srmhd::kNumVars];
    for (int v = 0; v < srmhd::kNumVars; ++v) q[v] = w[v][i];
    P::cons_components(srmhd::prim_to_cons(P::prim_from_components(q), kEos),
                       q);
    for (int v = 0; v < srmhd::kNumVars; ++v) u[v][i] = q[v];
  }
  const auto guess = perturbed_guess(w, srmhd::kRho, srmhd::kP, 13);
  auto out = guess;
  const auto run = simd ? &srmhd::kernels::simd::cons_to_prim_n
                        : &srmhd::kernels::scalar::cons_to_prim_n;
  const srmhd::Con2PrimOptions opt;
  long long iters = 0;
  for (auto _ : state) {
    restore(out, guess);
    auto r = run(n, u[0].data(), u[1].data(), u[2].data(), u[3].data(),
                 u[4].data(), u[5].data(), u[6].data(), u[7].data(),
                 u[8].data(), out[0].data(), out[1].data(), out[2].data(),
                 out[3].data(), out[4].data(), out[5].data(), out[6].data(),
                 out[7].data(), out[8].data(), 5.0 / 3.0, opt);
    iters += r.total_iterations;
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(out[srmhd::kP].data());
  }
  const auto zones = static_cast<int64_t>(state.iterations()) *
                     static_cast<int64_t>(n);
  state.SetItemsProcessed(zones);
  state.counters["iters_per_zone"] =
      static_cast<double>(iters) / static_cast<double>(zones);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_Con2PrimSrmhdBatch)->Apply(c2p_lengths);

void BM_SrmhdFacesBatch(benchmark::State& state) {
  const std::size_t n = 128;
  const bool simd = state.range(0) != 0;
  const auto wl = blast_row(n, 10);
  const auto wr = blast_row(n, 11);
  const auto lp = row_ptrs(wl);
  const auto rp = row_ptrs(wr);
  std::vector<std::vector<double>> f(srmhd::kNumVars, std::vector<double>(n));
  std::vector<double*> fp;
  for (auto& v : f) fp.push_back(v.data());
  const auto run = simd ? &riemann::kernels::simd::srmhd_faces_n
                        : &riemann::kernels::scalar::srmhd_faces_n;
  const srmhd::GlmParams glm;
  for (auto _ : state) {
    run(n, 0, lp.data(), rp.data(), fp.data(), kEos, glm, 1e-14, 1e-16);
    benchmark::DoNotOptimize(f[srmhd::kTau].data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_SrmhdFacesBatch)->Arg(0)->Arg(1);

void BM_Axpby(benchmark::State& state) {
  const std::size_t n = 65536;
  const auto x = random_pencil(n);
  std::vector<double> y(n, 1.0);
  for (auto _ : state) {
    srhd::kernels::simd::axpby_n(n, 0.5, x.data(), 0.5, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 16);
}
BENCHMARK(BM_Axpby);

void BM_ReconstructRows(benchmark::State& state) {
  // Batched plane entry point: one method dispatch for 32 contiguous
  // pencils, reconstructed along each row.
  const std::size_t rows = 32;
  const std::size_t n = 256;
  const auto q = random_pencil(rows * n);
  std::vector<double> ql(rows * n);
  std::vector<double> qr(rows * n);
  for (auto _ : state) {
    recon::reconstruct_rows(recon::Method::kPLMMC, rows, n, q.data(), n,
                            ql.data(), qr.data(), n);
    benchmark::DoNotOptimize(ql.data());
    benchmark::DoNotOptimize(qr.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * n));
}
BENCHMARK(BM_ReconstructRows);

void BM_SolverRhs(benchmark::State& state) {
  // Whole rhs phase (reconstruction + Riemann + flux differencing) on the
  // 2D KH workload the perf suite tracks, on the host pipeline.
  const long long n = 64;
  const mesh::Grid grid = mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  solver::SrhdSolver s(grid, opt);
  s.initialize(problems::kelvin_helmholtz_ic({}));
  for (auto _ : state) {
    s.compute_rhs_all();
    benchmark::DoNotOptimize(&s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          grid.num_cells());
  state.SetLabel(std::string(solver::host_pipeline_name(opt.pipeline)));
}
BENCHMARK(BM_SolverRhs);

void BM_GlmInterfaceFlux(benchmark::State& state) {
  for (auto _ : state) {
    auto f = srmhd::glm_interface_flux(0.4, 0.1, 0.2, -0.05, 1.0);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_GlmInterfaceFlux);

}  // namespace

BENCHMARK_MAIN();
