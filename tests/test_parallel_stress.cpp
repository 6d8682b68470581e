// Concurrency stress: drives the task graph on a thread pool, the dataflow
// solver, and the message-passing halo exchange with thread counts well
// above the host's core count. The assertions are deliberately simple
// (correct sums, bitwise equality with the serial path) — the real payload
// is the *interleavings*: this binary is the TSan lane's primary exercise
// of the machinery named in the lane's charter (thread_pool, task_graph,
// dataflow stepping, halo exchange).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <thread>
#include <vector>

#include "rshc/comm/communicator.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace {

using namespace rshc;

constexpr unsigned kThreads = 16;  // deliberately oversubscribed

TEST(ParallelStress, WideLayeredGraphFiresEveryNodeOncePerRun) {
  parallel::ThreadPool pool(kThreads);
  constexpr int kLayers = 8;
  constexpr int kWidth = 16;
  parallel::TaskGraph graph;
  std::vector<std::atomic<int>> fired(kLayers * kWidth);
  std::vector<parallel::TaskGraph::NodeId> prev;
  std::vector<parallel::TaskGraph::NodeId> cur;
  for (int l = 0; l < kLayers; ++l) {
    cur.clear();
    for (int w = 0; w < kWidth; ++w) {
      auto* cell = &fired[static_cast<std::size_t>(l * kWidth + w)];
      // Each node depends on the whole previous layer: a dense, wide DAG
      // with maximal release contention on every pending counter.
      cur.push_back(graph.add([cell] { cell->fetch_add(1); },
                              std::span<const parallel::TaskGraph::NodeId>(
                                  prev.data(), prev.size())));
    }
    prev = cur;
  }
  for (int rep = 0; rep < 10; ++rep) {
    for (auto& f : fired) f.store(0);
    graph.run(pool);
    for (auto& f : fired) EXPECT_EQ(f.load(), 1);
  }
}

TEST(ParallelStress, InlineGraphsRunConcurrentlyOnPoolWorkers) {
  // The service's pattern: every worker runs its own graph inline (a job
  // calling step()), all at once, sharing the process-wide graph counters.
  parallel::ThreadPool pool(kThreads);
  constexpr int kJobs = 2 * static_cast<int>(kThreads);
  constexpr int kNodes = 64;
  std::vector<std::atomic<int>> sums(kJobs);
  std::latch done(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    pool.enqueue([&sums, &done, j] {
      parallel::TaskGraph graph;
      auto* sum = &sums[static_cast<std::size_t>(j)];
      parallel::TaskGraph::NodeId prev = graph.add([sum] { sum->fetch_add(1); });
      for (int i = 1; i < kNodes; ++i) {
        prev = graph.add([sum] { sum->fetch_add(1); }, {prev});
      }
      for (int rep = 0; rep < 5; ++rep) graph.run();
      done.count_down();
    });
  }
  done.wait();
  for (auto& s : sums) EXPECT_EQ(s.load(), 5 * kNodes);
}

TEST(ParallelStress, DataflowSolverMatchesSerialUnderOversubscription) {
  const mesh::Grid g = mesh::Grid::make_2d(32, 32, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  const auto ic = [](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y);
    w.vx = 0.2;
    w.vy = -0.1;
    w.p = 1.0;
    return w;
  };
  constexpr double kDt = 0.004;
  constexpr int kSteps = 4;

  solver::SrhdSolver ref(g, opt);
  ref.initialize(ic);
  for (int i = 0; i < kSteps; ++i) ref.step(kDt);
  const auto rho_ref = ref.gather_prim_var(srhd::kRho);

  // 4x4 blocks on 16 threads: every block's (exchange, compute) chain can
  // be live at once, with no barrier between steps.
  auto opt_mb = opt;
  opt_mb.blocks = {4, 4, 1};
  solver::SrhdSolver s(g, opt_mb);
  s.initialize(ic);
  parallel::ThreadPool pool(kThreads);
  s.run_steps_dataflow(kSteps, kDt, pool);

  const auto rho = s.gather_prim_var(srhd::kRho);
  ASSERT_EQ(rho.size(), rho_ref.size());
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_EQ(rho[i], rho_ref[i]) << "cell " << i;
  }
}

TEST(ParallelStress, InlineStepsOnPoolWorkersMatchCallerStep) {
  // Multi-block solvers stepped with step() on oversubscribed pool workers
  // (as service jobs are) must each match the same step on the caller.
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  opt.blocks = {2, 2, 1};
  const auto ic = [](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.3 * std::cos(2 * M_PI * x) * std::sin(2 * M_PI * y);
    w.vx = -0.2;
    w.vy = 0.25;
    w.p = 1.0;
    return w;
  };
  constexpr double kDt = 0.004;
  constexpr int kSteps = 3;

  solver::SrhdSolver ref(g, opt);
  ref.initialize(ic);
  for (int i = 0; i < kSteps; ++i) ref.step(kDt);
  const auto rho_ref = ref.gather_prim_var(srhd::kRho);

  parallel::ThreadPool pool(kThreads);
  std::vector<std::vector<double>> rho(kThreads);
  std::latch done(kThreads);
  for (unsigned j = 0; j < kThreads; ++j) {
    pool.enqueue([&, j] {
      solver::SrhdSolver s(g, opt);
      s.initialize(ic);
      for (int i = 0; i < kSteps; ++i) s.step(kDt);
      rho[j] = s.gather_prim_var(srhd::kRho);
      done.count_down();
    });
  }
  done.wait();
  for (unsigned j = 0; j < kThreads; ++j) {
    ASSERT_EQ(rho[j].size(), rho_ref.size()) << "job " << j;
    for (std::size_t i = 0; i < rho_ref.size(); ++i) {
      EXPECT_EQ(rho[j][i], rho_ref[i]) << "job " << j << " cell " << i;
    }
  }
}

TEST(ParallelStress, NineRankHaloExchangeMatchesSerial) {
  // 9 communicator threads (3x3 topology) exchanging halos every stage.
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  const auto ic = [](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.vx = 0.3;
    w.vy = -0.15;
    w.p = 1.0;
    return w;
  };
  constexpr double kDt = 0.004;
  constexpr int kSteps = 3;

  solver::SrhdSolver ref(g, opt);
  ref.initialize(ic);
  for (int i = 0; i < kSteps; ++i) ref.step(kDt);
  const auto rho_ref = ref.gather_prim_var(srhd::kRho);

  std::vector<double> rho_dist;
  comm::run_world(9, [&](comm::Communicator& c) {
    solver::DistributedSrhdSolver s(g, c, opt);
    s.initialize(ic);
    for (int i = 0; i < kSteps; ++i) s.step(kDt);
    auto gathered = s.gather_prim_var_root(srhd::kRho);
    if (c.rank() == 0) rho_dist = std::move(gathered);
  });

  ASSERT_EQ(rho_dist.size(), rho_ref.size());
  for (std::size_t i = 0; i < rho_ref.size(); ++i) {
    EXPECT_EQ(rho_dist[i], rho_ref[i]) << "cell " << i;
  }
}

}  // namespace
