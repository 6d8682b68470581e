// Experiment F4 — weak scaling (figure).
// 64x64 zones *per worker*: the grid grows with the worker count, so
// perfect weak scaling keeps time/step constant. For each size the
// `inline` row steps the grid on the calling thread (step()) and the
// `dataflow` row runs the same graph on a pool of that many workers
// (run_steps_dataflow; workers 0 marks the inline row). speedup = inline
// sec/step / pool sec/step; weak_efficiency is each mode's 1-worker-size
// time over its time at this size. The pooled end state must match the
// inline run's bit for bit, or the harness exits 1.
//
// Expected shape: near-flat pooled time/step up to the host's core count.
// The reference host has 4 logical CPUs and about 3.3 effective cores,
// and the speed-up collapses under contention; EXPERIMENTS.md records the
// measured figures.

#include "rshc/parallel/thread_pool.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kPerWorker = 64;
  constexpr int kSteps = 8;
  const std::vector<unsigned> workers = {1, 2, 4, 8};

  Table table({"mode", "workers", "grid", "sec_per_step", "speedup",
               "weak_efficiency", "Mzone_updates_per_s", "matches_inline"});
  table.set_title("F4: weak scaling, 64^2 zones per worker "
                  "(speedup = inline / pool time; see EXPERIMENTS.md)");

  bool all_match = true;
  double inline_t1 = 0.0;
  double pool_t1 = 0.0;
  for (const unsigned w : workers) {
    const long long nx = kPerWorker * w;
    const long long ny = kPerWorker;
    const mesh::Grid grid =
        mesh::Grid::make_2d(nx, ny, 0.0, static_cast<double>(w), -0.5, 0.5);
    solver::SrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    opt.blocks = {2 * static_cast<int>(w), 2, 1};
    const double dt = 0.1 / static_cast<double>(kPerWorker);
    const std::string size = std::to_string(nx) + "x" + std::to_string(ny);
    const double zones_per_step = static_cast<double>(nx * ny) * 3.0;  // RK3

    // kSteps untimed warm-up steps (building the graph), then kSteps timed.
    solver::SrhdSolver inline_run(grid, opt);
    inline_run.initialize(problems::kelvin_helmholtz_ic({}));
    for (int i = 0; i < kSteps; ++i) inline_run.step(dt);
    WallTimer t_inline;
    for (int i = 0; i < kSteps; ++i) inline_run.step(dt);
    const double inline_step = t_inline.seconds() / kSteps;

    solver::SrhdSolver s(grid, opt);
    s.initialize(problems::kelvin_helmholtz_ic({}));
    parallel::ThreadPool pool(w);
    s.run_steps_dataflow(kSteps, dt, pool);
    WallTimer t;
    s.run_steps_dataflow(kSteps, dt, pool);
    const double per_step = t.seconds() / kSteps;
    if (w == 1) {
      inline_t1 = inline_step;
      pool_t1 = per_step;
    }
    const bool match = bench::same_state(inline_run, s);
    all_match = all_match && match;

    table.add_row({std::string("inline"), 0LL, size, inline_step, 1.0,
                   inline_t1 / inline_step,
                   zones_per_step / inline_step / 1e6, std::string("yes")});
    table.add_row({std::string("dataflow"), static_cast<long long>(w), size,
                   per_step, inline_step / per_step, pool_t1 / per_step,
                   zones_per_step / per_step / 1e6,
                   std::string(match ? "yes" : "NO")});
  }
  bench::emit(table, "f4_weak_scaling");
  if (!all_match) {
    std::cerr << "F4: a pooled run's end state differs from the inline "
                 "run's\n";
    return 1;
  }
  return 0;
}
