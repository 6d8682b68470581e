// Experiment F6 — communication/computation overlap (figure).
// Part A (shared memory): the cost of the barrier between steps, the only
// barrier the dataflow schedule has left. n one-step bursts
// (run_steps_dataflow(1), a barrier after every step) against one n-step
// graph (run_steps_dataflow(n), no barrier until the end), as the block
// count grows at fixed problem size. Both end states must agree bit for
// bit, or the harness exits 1.
// Part B (message passing): distributed stepping under injected
// per-message latency, synchronous vs latency-hiding exchange. The sync
// schedule pays every halo wait on the critical path, so its cost per
// step grows linearly with latency; the overlapped schedule computes the
// ghost-free interior while messages fly and only waits for the
// remainder, so its latency slope is much shallower. Both columns step
// the same bitwise-identical numerics (tests/test_overlap.cpp).
//
// Each Part B row also records the fabric's punctuality (recv_late_us):
// the median over 41 one-way messages, under the same model, of receive
// completion minus send minus the modeled latency. A receive may not
// complete before the modeled flight time, so this is the wait path's
// overshoot.
//
// Expected shape: A — the fused graph's advantage grows with block count
// where a step's tail leaves workers idle (bounded by the host's ~3.3
// effective cores; see EXPERIMENTS.md); B — sync time/step grows roughly
// linearly with injected latency while overlap's growth is mostly hidden
// (overlap_speedup rising with latency); recv_late_us stays a few
// microseconds at every latency.

#include <algorithm>
#include <chrono>
#include <vector>

#include "rshc/parallel/thread_pool.hpp"
#include "rshc/solver/distributed.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kN = 96;
  constexpr int kSteps = 6;

  // --- Part A: block-count sweep --------------------------------------
  Table a({"blocks", "bursts_sec_per_step", "fused_sec_per_step",
           "fused_speedup"});
  a.set_title("F6a: barrier between steps vs block count (96^2, 2 workers; "
              "bursts = kSteps x 1-step graph, fused = one kSteps graph)");
  bool all_match = true;
  for (const int nb : {1, 2, 4, 6}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    opt.blocks = {nb, nb, 1};
    const double dt = 0.1 / static_cast<double>(kN);
    parallel::ThreadPool pool(2);

    // kSteps untimed warm-up steps (building the graph), then kSteps timed.
    auto run = [&](int burst, solver::SrhdSolver& s) {
      s.initialize(problems::kelvin_helmholtz_ic({}));
      for (int i = 0; i < kSteps; i += burst) {
        s.run_steps_dataflow(burst, dt, pool);
      }
      WallTimer t;
      for (int i = 0; i < kSteps; i += burst) {
        s.run_steps_dataflow(burst, dt, pool);
      }
      return t.seconds() / kSteps;
    };
    solver::SrhdSolver bursts(grid, opt);
    solver::SrhdSolver fused(grid, opt);
    const double bursts_step = run(1, bursts);
    const double fused_step = run(kSteps, fused);
    all_match = all_match && bench::same_state(bursts, fused);
    a.add_row({static_cast<long long>(nb * nb), bursts_step, fused_step,
               bursts_step / fused_step});
  }
  bench::emit(a, "f6a_overlap_blocks");

  // --- Part B: injected message latency, sync vs overlapped -------------
  Table b({"latency_us", "sync_sec_per_step", "overlap_sec_per_step",
           "overlap_speedup", "messages_per_step", "recv_late_us"});
  b.set_title("F6b: distributed step cost vs injected per-message latency "
              "(4 ranks, 96^2, sync vs latency-hiding exchange)");
  for (const double latency_us : {0.0, 250.0, 1000.0, 2000.0}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::DistributedSrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    const double dt = 0.1 / static_cast<double>(kN);

    comm::TransferModel model;
    model.latency_sec = latency_us * 1e-6;

    double msgs_per_step = 0.0;
    auto run = [&](bool overlap) {
      comm::World world(4, model);
      WallTimer t;
      {
        std::vector<std::jthread> threads;
        for (int r = 0; r < 4; ++r) {
          threads.emplace_back([&world, &grid, &opt, dt, overlap, r] {
            auto c = world.communicator(r);
            solver::DistributedSrhdSolver s(grid, c, opt);
            s.set_overlap(overlap);
            s.initialize(problems::kelvin_helmholtz_ic({}));
            for (int i = 0; i < kSteps; ++i) s.step(dt);
          });
        }
      }
      msgs_per_step = static_cast<double>(world.total_messages()) / kSteps;
      return t.seconds() / kSteps;
    };
    const double sync_step = run(false);
    const double overlap_step = run(true);

    // Punctuality: one-way messages whose payload is the sender's clock
    // just before send; the receiver logs completion - send - latency.
    std::vector<double> late_us;
    comm::run_world(
        2,
        [&late_us, latency_us](comm::Communicator& c) {
          using Clock = std::chrono::steady_clock;
          for (int i = 0; i < 41; ++i) {
            c.barrier();
            if (c.rank() == 0) {
              c.send_value(1, 0, Clock::now().time_since_epoch().count());
            } else {
              const Clock::time_point sent(
                  Clock::duration(c.recv_value<Clock::rep>(0, 0)));
              const std::chrono::duration<double, std::micro> flight =
                  Clock::now() - sent;
              late_us.push_back(flight.count() - latency_us);
            }
          }
        },
        model);
    std::nth_element(late_us.begin(), late_us.begin() + late_us.size() / 2,
                     late_us.end());

    b.add_row({latency_us, sync_step, overlap_step, sync_step / overlap_step,
               msgs_per_step, late_us[late_us.size() / 2]});
  }
  bench::emit(b, "f6b_overlap_latency");
  if (!all_match) {
    std::cerr << "F6a: fused and one-step-burst end states differ\n";
    return 1;
  }
  return 0;
}
