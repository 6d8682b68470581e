// Experiment F3 — strong scaling (figure).
// Fixed 128^2 problem split into 4x4 blocks, stepped by the one host
// schedule: the per-block dataflow graph. The `inline` row runs it on the
// calling thread (step(); workers 0); the `dataflow` rows run it on a pool
// of 1, 2, 4 and 8 workers (run_steps_dataflow, one graph per kSteps burst).
// speedup = inline sec/step / pool sec/step. Every row's end state must
// match the inline run's bit for bit, or the harness exits 1.
//
// Expected shape: time/step drops with workers up to the host's core
// count. The reference host has 4 logical CPUs and about 3.3 effective
// cores, and the speed-up collapses under contention from other tenants;
// EXPERIMENTS.md records the measured figures.

#include "rshc/parallel/thread_pool.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kN = 128;
  constexpr int kSteps = 8;
  const std::vector<unsigned> workers = {1, 2, 4, 8};

  const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  opt.blocks = {4, 4, 1};
  const double dt = 0.1 / static_cast<double>(kN);
  auto make = [&] {
    auto s = std::make_unique<solver::SrhdSolver>(grid, opt);
    s->initialize(problems::kelvin_helmholtz_ic({}));
    return s;
  };

  Table table({"mode", "workers", "sec_per_step", "speedup", "efficiency",
               "Mzone_updates_per_s", "matches_inline"});
  table.set_title("F3: strong scaling, 128^2 in 4x4 blocks "
                  "(speedup = inline / pool time; see EXPERIMENTS.md)");
  const double zones_per_step = static_cast<double>(kN * kN) * 3.0;  // RK3

  // Each run takes kSteps untimed warm-up steps (building the graph), then
  // kSteps timed ones, so every row ends on the same step.
  auto inline_run = make();
  for (int i = 0; i < kSteps; ++i) inline_run->step(dt);
  WallTimer t_inline;
  for (int i = 0; i < kSteps; ++i) inline_run->step(dt);
  const double inline_step = t_inline.seconds() / kSteps;
  table.add_row({std::string("inline"), 0LL, inline_step, 1.0, 1.0,
                 zones_per_step / inline_step / 1e6, std::string("yes")});

  bool all_match = true;
  for (const unsigned w : workers) {
    auto s = make();
    parallel::ThreadPool pool(w);
    s->run_steps_dataflow(kSteps, dt, pool);
    WallTimer t;
    s->run_steps_dataflow(kSteps, dt, pool);
    const double per_step = t.seconds() / kSteps;
    const bool match = bench::same_state(*inline_run, *s);
    all_match = all_match && match;
    table.add_row({std::string("dataflow"), static_cast<long long>(w),
                   per_step, inline_step / per_step,
                   inline_step / per_step / w,
                   zones_per_step / per_step / 1e6,
                   std::string(match ? "yes" : "NO")});
  }
  bench::emit(table, "f3_strong_scaling");
  if (!all_match) {
    std::cerr << "F3: a pooled run's end state differs from the inline "
                 "run's\n";
    return 1;
  }
  return 0;
}
