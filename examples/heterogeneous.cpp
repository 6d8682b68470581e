// Heterogeneous execution demo: the same Kelvin-Helmholtz block stepped on
// the host pipeline and on the resident device-offload pipeline (bitwise
// identical results, halo-only transfers after the first step), plus the
// one host step schedule, the per-block dataflow graph, run inline on the
// calling thread (step()) and on a worker pool (run_steps_dataflow).
//
//   ./examples/heterogeneous [N=128] [threads=4] [steps=20]
//
// This is the "zero to offload" tour of the device and runtime layers the
// paper's heterogeneous pipeline rests on. It also runs with live
// telemetry: a journal run bracket (RSHC_JOURNAL_OUT) and the periodic
// sampler (RSHC_TELEMETRY_OUT / RSHC_TELEMETRY_INTERVAL_MS), under the
// process's one stall watchdog (RSHC_WATCHDOG / RSHC_WATCHDOG_TIMEOUT_MS,
// parallel/watchdog.hpp; it works in every build, and with RSHC_OBS on
// journals a dump per stall); RSHC_DUMP_REPORT=1 writes the run report.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rshc/common/config.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/obs/journal.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/obs/telemetry.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/parallel/watchdog.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace {

bool same_bits(const rshc::mesh::FieldArray& a,
               const rshc::mesh::FieldArray& b) {
  return a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rshc;
  const Config cfg = Config::from_args(argc, argv);
  const long long n = cfg.get_int("N", 128);
  const unsigned threads =
      static_cast<unsigned>(cfg.get_int("threads", 4));
  const int steps = static_cast<int>(cfg.get_int("steps", 20));

  obs::journal::run_start("heterogeneous");
  obs::telemetry::Sampler sampler;  // options from RSHC_TELEMETRY_*
  sampler.start();
  parallel::Watchdog watchdog;  // options from RSHC_WATCHDOG*
  watchdog.start();

  const mesh::Grid grid = mesh::Grid::make_2d(n, n, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  const double dt = 0.2 / static_cast<double>(n);

  // Part 1: one KH block stepped on the host and on the device. The
  // device keeps the block resident; after the step-0 upload only halo
  // slabs cross the modeled PCIe link (the byte counters below, which
  // read 0 when obs is off).
  std::printf("# Part 1: %d steps of a %lldx%lld KH block per pipeline\n",
              steps, n, n);
  std::printf("%-14s %-12s %-12s %-14s %-14s\n", "pipeline", "seconds",
              "steps/s", "h2d_bytes", "d2h_bytes");
  auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
  auto& d2h = obs::Registry::global().counter("device.d2h.bytes");
  std::vector<std::unique_ptr<solver::SrhdSolver>> runs;
  for (const auto pipeline :
       {solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice}) {
    auto o = opt;
    o.pipeline = pipeline;
    auto s = std::make_unique<solver::SrhdSolver>(grid, o);
    s->initialize(problems::kelvin_helmholtz_ic({}));
    const auto h2d0 = h2d.total();
    const auto d2h0 = d2h.total();
    WallTimer t;
    for (int i = 0; i < steps; ++i) s->step(dt);
    const double sec = t.seconds();
    std::printf("%-14s %-12.4f %-12.2f %-14lld %-14lld\n",
                std::string(solver::host_pipeline_name(pipeline)).c_str(),
                sec, steps / sec, static_cast<long long>(h2d.total() - h2d0),
                static_cast<long long>(d2h.total() - d2h0));
    s->sync_from_device();  // no-op on the host pipeline
    runs.push_back(std::move(s));
  }
  const bool identical =
      same_bits(runs[0]->block(0).cons(), runs[1]->block(0).cons()) &&
      same_bits(runs[0]->block(0).prim(), runs[1]->block(0).prim());
  std::printf("# device final state %s the host's bit for bit\n",
              identical ? "matches" : "DIFFERS from");

  // Part 2: the dataflow graph inline on this thread vs on the pool. Both
  // run the same node bodies, so the end states must match bit for bit.
  std::printf("\n# Part 2: %d steps of a %lldx%lld run in 4x4 blocks, "
              "inline vs %u workers\n",
              steps, n, n, threads);
  auto make_solver = [&] {
    auto o = opt;
    o.blocks = {4, 4, 1};
    auto s = std::make_unique<solver::SrhdSolver>(grid, o);
    s->initialize(problems::kelvin_helmholtz_ic({}));
    return s;
  };
  parallel::ThreadPool pool(threads);

  auto inline_run = make_solver();
  WallTimer t1;
  for (int i = 0; i < steps; ++i) inline_run->step(dt);
  const double t_inline = t1.seconds();

  auto flow = make_solver();
  WallTimer t2;
  flow->run_steps_dataflow(steps, dt, pool);
  const double t_flow = t2.seconds();

  bool schedules_match = true;
  for (int b = 0; b < inline_run->num_blocks(); ++b) {
    schedules_match = schedules_match &&
                      same_bits(inline_run->block(b).cons(),
                                flow->block(b).cons()) &&
                      same_bits(inline_run->block(b).prim(),
                                flow->block(b).prim());
  }
  std::printf("%-14s %-12s %-12s\n", "mode", "seconds", "steps/s");
  std::printf("%-14s %-12.4f %-12.2f\n", "inline", t_inline,
              steps / t_inline);
  std::printf("%-14s %-12.4f %-12.2f\n", "dataflow", t_flow,
              steps / t_flow);
  std::printf("# dataflow speedup over inline: %.2fx on %u workers (bounded "
              "by the host's free cores)\n",
              t_inline / t_flow, threads);
  std::printf("# pooled end state %s the inline run's bit for bit\n",
              schedules_match ? "matches" : "DIFFERS from");
  watchdog.stop();
  sampler.stop();
  obs::maybe_dump("heterogeneous");
  obs::journal::run_end("heterogeneous");
  return identical && schedules_match ? 0 : 1;
}
