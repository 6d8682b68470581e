// Integration tests of the observability layer against the SRHD solver:
// a traced shock-tube step must produce the expected phase spans in the
// expected order, registry phase times must nest inside the step total,
// a dataflow run must show halo exchange overlapping compute on another
// thread, a four-rank distributed run must export a structurally valid
// Chrome trace with rank-labeled processes and paired send->recv flows, and
// the c2p work counters must match the solver's own totals on every
// stepping path.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rshc/comm/communicator.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/obs/report.hpp"
#include "rshc/obs/telemetry.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/json_mini.hpp"
#include "support/trace_validator.hpp"

#if RSHC_OBS_ENABLED

namespace {

using namespace rshc;
using solver::SrhdSolver;
using testsupport::JsonParser;
using testsupport::JsonValue;

class ObsIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_tracing(false);
    obs::Registry::global().reset();
    obs::Tracer::global().clear();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::Tracer::global().clear();
  }
};

SrhdSolver::Options sod_opts(std::array<int, 3> blocks = {1, 1, 1}) {
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(problems::sod().gamma);
  opt.blocks = blocks;
  return opt;
}

TEST_F(ObsIntegration, SerialStepEmitsOrderedPhaseSpans) {
  SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), sod_opts({2, 1, 1}));
  s.initialize(problems::shock_tube_ic(problems::sod()));
  obs::set_tracing(true);
  constexpr int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) s.step(s.compute_dt());
  obs::set_tracing(false);

  const auto events = obs::Tracer::global().events();
  ASSERT_FALSE(events.empty());

  // Per block: spans come in exchange -> rhs -> update -> c2p order within
  // each stage, so the i-th occurrence of each phase must be strictly
  // ordered in time, and every c2p begins only after its update ended.
  std::map<std::string, std::vector<const obs::TraceEvent*>> by_phase[2];
  std::int64_t steps_seen = 0;
  for (const auto& e : events) {
    const std::string name(e.name);
    if (name == "solver.step") {
      ++steps_seen;
      continue;
    }
    if (e.id >= 0 && e.id < 2 && name.rfind("solver.phase.", 0) == 0) {
      by_phase[static_cast<std::size_t>(e.id)]
          .try_emplace(name)
          .first->second.push_back(&e);
    }
  }
  EXPECT_EQ(steps_seen, kSteps);

  for (std::size_t b = 0; b < 2; ++b) {
    const auto& exch = by_phase[b]["solver.phase.exchange"];
    const auto& rhs = by_phase[b]["solver.phase.rhs"];
    const auto& upd = by_phase[b]["solver.phase.update"];
    const auto& c2p = by_phase[b]["solver.phase.c2p"];
    ASSERT_FALSE(exch.empty()) << "block " << b;
    ASSERT_EQ(exch.size(), rhs.size());
    ASSERT_EQ(upd.size(), c2p.size());
    for (std::size_t i = 0; i < exch.size(); ++i) {
      // Ghosts are exchanged before the RHS that consumes them.
      EXPECT_LE(exch[i]->t1_ns, rhs[i]->t0_ns) << "block " << b;
    }
    for (std::size_t i = 0; i < upd.size(); ++i) {
      // Conserved update completes before its con2prim recovery begins.
      EXPECT_LE(upd[i]->t1_ns, c2p[i]->t0_ns) << "block " << b;
    }
  }
}

TEST_F(ObsIntegration, PhaseTimesNestInsideStepTotal) {
  SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), sod_opts());
  s.initialize(problems::shock_tube_ic(problems::sod()));
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) s.step(s.compute_dt());

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("solver.steps"), kSteps);

  const double phase_sum = snap.value_or("solver.phase.exchange") +
                           snap.value_or("solver.phase.rhs") +
                           snap.value_or("solver.phase.update") +
                           snap.value_or("solver.phase.c2p") +
                           snap.value_or("solver.phase.other");
  const double step_total = snap.value_or("solver.step");
  EXPECT_GT(phase_sum, 0.0);
  // Every phase span nests inside a solver.step span, so the per-phase
  // times can only sum to less than the step total.
  EXPECT_LE(phase_sum, step_total);

  const auto* step = snap.find("solver.step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->kind, "timer");
  EXPECT_EQ(step->count, kSteps);
  EXPECT_LE(step->min, step->max);

  // Multi-block SRMHD (its last stage damps psi): the graph's u0 save and
  // damping are timed per block as "other", still inside solver.step. The
  // device pipeline runs the same graph, so its kernels and host nodes
  // record the same phase counts, plus one device.rim_wait per E node.
  // The registry is reset after initialize(): its ghost fill records
  // solver.phase.exchange outside any solver.step.
  auto run_blast = [](solver::HostPipeline pipeline) {
    solver::SrmhdSolver::Options mopt;
    mopt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
    mopt.blocks = {2, 2, 1};
    mopt.pipeline = pipeline;
    mopt.accel = {0.0, std::numeric_limits<double>::infinity(), 0.0};
    solver::SrmhdSolver m(mesh::Grid::make_2d(16, 16, -1.0, 1.0, -1.0, 1.0),
                          mopt);
    m.initialize(problems::mhd_blast2d_ic({}));
    const double dt = 0.5 * m.compute_dt();
    obs::Registry::global().reset();
    m.step(dt);
    return obs::Registry::global().snapshot();
  };
  const std::array<const char*, 5> phases = {
      "solver.phase.exchange", "solver.phase.rhs", "solver.phase.update",
      "solver.phase.c2p", "solver.phase.other"};
  const obs::Snapshot host = run_blast(solver::HostPipeline::kBatchedSimd);
  const obs::Snapshot dev = run_blast(solver::HostPipeline::kDevice);
  constexpr int kBlocks = 4;
  const int stages =
      time::num_stages(solver::SrmhdSolver::Options{}.integrator);
  const auto* other = host.find("solver.phase.other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->count, 2 * kBlocks);  // u0 save + psi damping
  for (const obs::Snapshot* snap : {&host, &dev}) {
    double phase_sum = 0.0;
    for (const char* name : phases) {
      const auto* h = host.find(name);
      const auto* e = snap->find(name);
      ASSERT_NE(h, nullptr) << name;
      ASSERT_NE(e, nullptr) << name;
      EXPECT_EQ(e->count, h->count) << name;
      phase_sum += snap->value_or(name);
    }
    EXPECT_LE(phase_sum, snap->value_or("solver.step"));
  }
  EXPECT_EQ(host.find("solver.phase.rhs")->count, kBlocks * stages);
  const auto* rim_wait = dev.find("device.rim_wait");
  ASSERT_NE(rim_wait, nullptr);
  EXPECT_EQ(rim_wait->count, kBlocks * stages);
  const auto* host_wait = host.find("device.rim_wait");
  EXPECT_TRUE(host_wait == nullptr || host_wait->count == 0);
}

TEST_F(ObsIntegration, RuntimeDisabledSolverRecordsNothing) {
  obs::set_enabled(false);
  SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), sod_opts());
  s.initialize(problems::shock_tube_ic(problems::sod()));
  s.step(s.compute_dt());
  obs::set_enabled(true);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("solver.steps"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value_or("solver.phase.rhs"), 0.0);
  EXPECT_TRUE(obs::Tracer::global().events().empty());
}

TEST_F(ObsIntegration, DataflowTraceShowsExchangeOverlappingCompute) {
  // A multi-block dataflow run on several workers: some block's halo
  // exchange must overlap another block's compute on a different thread —
  // that is the whole point of the futurized schedule.
  const mesh::Grid grid = mesh::Grid::make_2d(96, 96, 0.0, 1.0, 0.0, 1.0);
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  opt.blocks = {4, 2, 1};
  SrhdSolver s(grid, opt);
  s.initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.vx = 0.3;
    w.vy = -0.2;
    w.p = 1.0;
    return w;
  });

  parallel::ThreadPool pool(4);
  obs::set_tracing(true);
  s.run_steps_dataflow(12, 0.002, pool);
  obs::set_tracing(false);

  const auto events = obs::Tracer::global().events();
  std::vector<const obs::TraceEvent*> exchanges;
  std::vector<const obs::TraceEvent*> computes;
  for (const auto& e : events) {
    const std::string name(e.name);
    if (name == "solver.phase.exchange") exchanges.push_back(&e);
    if (name == "solver.phase.rhs" || name == "solver.phase.update" ||
        name == "solver.phase.c2p") {
      computes.push_back(&e);
    }
  }
  ASSERT_FALSE(exchanges.empty());
  ASSERT_FALSE(computes.empty());

  bool overlap = false;
  for (const auto* ex : exchanges) {
    for (const auto* co : computes) {
      if (ex->tid != co->tid && ex->t0_ns < co->t1_ns &&
          co->t0_ns < ex->t1_ns) {
        overlap = true;
        break;
      }
    }
    if (overlap) break;
  }
  EXPECT_TRUE(overlap)
      << "no halo-exchange span overlapped a compute span on another "
         "thread across "
      << exchanges.size() << " exchanges and " << computes.size()
      << " compute spans";

  // The task-graph nodes themselves were counted.
  EXPECT_GT(obs::Registry::global().counter("graph.nodes_run").total(), 0);
}

// --- rank-aware reporting and comm flow tracing ----------------------------

SrhdSolver::Options kh_opts() {
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  return opt;
}

TEST_F(ObsIntegration, FourRankTraceHasPairedFlowsAndNamedRanks) {
  constexpr int kRanks = 4;
  const mesh::Grid grid = mesh::Grid::make_2d(32, 32, -0.5, 0.5, -0.5, 0.5);
  std::array<obs::Registry, kRanks> regs;

  obs::set_tracing(true);
  comm::run_world(kRanks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    obs::report::RankScope scope(regs[r], c.rank());
    solver::DistributedSolver<solver::SrhdPhysics> ds(grid, c, kh_opts());
    ds.initialize(problems::kelvin_helmholtz_ic({}));
    for (int i = 0; i < 2; ++i) ds.step(ds.compute_dt());
  });
  obs::set_tracing(false);

  std::ostringstream os;
  obs::Tracer::global().write_chrome_json(os);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();

  // The exported trace is structurally valid: metadata first, monotone
  // timestamps, balanced nesting, flow ids pairing up exactly once.
  const auto problems = testsupport::validate_chrome_trace(root);
  EXPECT_TRUE(problems.empty()) << ::testing::PrintToString(problems);

  std::set<std::string> process_names;
  // Flow ids are integral in the emitter; parse them back as keys.
  std::map<long long, double> flow_start_pid;  // flow id -> sender rank
  std::size_t cross_rank_flows = 0;
  for (const auto& e : root.at("traceEvents").array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M" && e.at("name").string == "process_name") {
      process_names.insert(e.at("args").at("name").string);
    }
    const auto flow_id = static_cast<long long>(e.at("id").number);
    if (ph == "s") flow_start_pid[flow_id] = e.at("pid").number;
    if (ph == "f") {
      const auto it = flow_start_pid.find(flow_id);
      if (it != flow_start_pid.end() &&
          it->second != e.at("pid").number) {
        ++cross_rank_flows;
      }
    }
  }
  // Every rank ran under a RankScope, so its track carries its label.
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(process_names.count("rank " + std::to_string(r)) == 1)
        << "missing process_name for rank " << r;
  }
  // Halo messages travel between neighbouring ranks: the send->recv flow
  // arrows must actually cross process tracks.
  EXPECT_GT(cross_rank_flows, 0u);

  // Each rank's scoped registry saw its own solver phases and halo bytes.
  for (const auto& reg : regs) {
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_GT(snap.value_or("solver.phase.rhs"), 0.0);
    EXPECT_GT(snap.value_or("halo.bytes_sent"), 0.0);
    EXPECT_GT(snap.value_or("comm.messages_sent"), 0.0);
  }
  // The global registry saw none of it (everything was rank-scoped).
  EXPECT_DOUBLE_EQ(
      obs::Registry::global().snapshot().value_or("halo.bytes_sent"), 0.0);
}

TEST_F(ObsIntegration, FourRankTraceCarriesTelemetryCounterTracks) {
  // The live-telemetry sampler re-emits transfer byte counters as ph:"C"
  // counter events on the rank tracks, so byte flow lines up with the
  // phase spans on one Perfetto timeline. Driven synchronously via
  // sample_now() for determinism (no background thread).
  constexpr int kRanks = 4;
  const mesh::Grid grid = mesh::Grid::make_2d(32, 32, -0.5, 0.5, -0.5, 0.5);
  std::array<obs::Registry, kRanks> regs;

  obs::telemetry::SamplerOptions sopt;
  sopt.counter_tracks = obs::telemetry::default_counter_tracks();
  obs::telemetry::Sampler sampler(sopt);
  for (int r = 0; r < kRanks; ++r) {
    sampler.attach_registry(r, &regs[static_cast<std::size_t>(r)]);
  }

  obs::set_tracing(true);
  comm::run_world(kRanks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    obs::report::RankScope scope(regs[r], c.rank());
    solver::DistributedSolver<solver::SrhdPhysics> ds(grid, c, kh_opts());
    ds.initialize(problems::kelvin_helmholtz_ic({}));
    for (int i = 0; i < 2; ++i) ds.step(ds.compute_dt());
  });

  // A small genuine device-pipeline step so the H2D/D2H byte counters
  // (accumulated in the global registry by the stream workers) are live.
  {
    SrhdSolver::Options dopt = sod_opts({2, 1, 1});
    dopt.pipeline = solver::HostPipeline::kDevice;
    dopt.accel = {0.0, std::numeric_limits<double>::infinity(), 0.0};
    SrhdSolver ds(mesh::Grid::make_1d(64, 0.0, 1.0), dopt);
    ds.initialize(problems::shock_tube_ic(problems::sod()));
    ds.step(ds.compute_dt());
  }

  sampler.sample_now();
  obs::set_tracing(false);

  std::ostringstream os;
  obs::Tracer::global().write_chrome_json(os);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  const auto problems = testsupport::validate_chrome_trace(root);
  EXPECT_TRUE(problems.empty()) << ::testing::PrintToString(problems);

  // Counter name -> pids it was sampled on, with the last value seen.
  std::map<std::string, std::set<int>> counter_pids;
  std::map<std::string, double> counter_value;
  for (const auto& e : root.at("traceEvents").array) {
    if (e.at("ph").string != "C") continue;
    const std::string& name = e.at("name").string;
    counter_pids[name].insert(static_cast<int>(e.at("pid").number));
    counter_value[name] = e.at("args").at("value").number;
  }
  // Every rank's halo traffic shows up as a counter sample on its track.
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(counter_pids["halo.bytes_sent"].count(r) == 1)
        << "no halo.bytes_sent counter sample on rank track " << r;
  }
  // Device transfer bytes ride the global (pid 0) track with real totals.
  EXPECT_TRUE(counter_pids["device.h2d.bytes"].count(0) == 1);
  EXPECT_TRUE(counter_pids["device.d2h.bytes"].count(0) == 1);
  EXPECT_GT(counter_value["device.h2d.bytes"], 0.0);
  EXPECT_GT(counter_value["device.d2h.bytes"], 0.0);
}

TEST_F(ObsIntegration, RankRollupComputesExactCrossRankStats) {
  constexpr int kRanks = 4;
  std::array<obs::Registry, kRanks> regs;
  using Rollup = std::vector<std::pair<std::string, obs::report::RankStats>>;
  std::array<Rollup, kRanks> results;

  comm::run_world(kRanks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    // Hand-planted per-rank totals: rank r spends (r + 1) seconds.
    regs[r].timer("phase.a").record_seconds(static_cast<double>(r + 1));
    results[r] = obs::report::rank_rollup(c, regs[r].snapshot(),
                                          {"phase.a", "phase.absent"});
  });

  // sums = {1, 2, 3, 4}: min 1, max 4, mean 2.5, imbalance 4 / 2.5 = 1.6.
  for (const auto& rollup : results) {
    ASSERT_EQ(rollup.size(), 2u);
    EXPECT_EQ(rollup[0].first, "phase.a");
    EXPECT_NEAR(rollup[0].second.min_s, 1.0, 1e-9);
    EXPECT_NEAR(rollup[0].second.max_s, 4.0, 1e-9);
    EXPECT_NEAR(rollup[0].second.mean_s, 2.5, 1e-9);
    EXPECT_NEAR(rollup[0].second.imbalance, 1.6, 1e-9);
    // A phase no rank recorded rolls up to all-zero, imbalance included.
    EXPECT_EQ(rollup[1].first, "phase.absent");
    EXPECT_DOUBLE_EQ(rollup[1].second.max_s, 0.0);
    EXPECT_DOUBLE_EQ(rollup[1].second.imbalance, 0.0);
  }
}

TEST_F(ObsIntegration, PhasesFromRanksMergeCountsAndRankStats) {
  std::array<obs::Registry, 2> regs;
  regs[0].timer("phase.m").record_seconds(1.0);
  regs[0].timer("phase.m").record_seconds(1.0);
  regs[1].timer("phase.m").record_seconds(2.0);
  const std::array<obs::Snapshot, 2> snaps = {regs[0].snapshot(),
                                              regs[1].snapshot()};
  const auto rows = obs::report::phases_from_ranks(
      std::span<const obs::Snapshot>(snaps), "dist.");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "dist.phase.m");
  EXPECT_EQ(rows[0].count, 3);
  EXPECT_NEAR(rows[0].sum_s, 4.0, 1e-8);
  ASSERT_TRUE(rows[0].ranks.has_value());
  EXPECT_NEAR(rows[0].ranks->min_s, 2.0, 1e-9);   // rank 0 total
  EXPECT_NEAR(rows[0].ranks->max_s, 2.0, 1e-9);   // rank 1 total
  EXPECT_NEAR(rows[0].ranks->mean_s, 2.0, 1e-9);
  EXPECT_NEAR(rows[0].ranks->imbalance, 1.0, 1e-9);
  // Percentiles come from the merged bins, clamped to the exact envelope.
  EXPECT_GE(rows[0].p50_s, rows[0].min_s);
  EXPECT_LE(rows[0].p99_s, rows[0].max_s);
}

TEST_F(ObsIntegration, MaybeDumpCreatesMissingOutputDirectory) {
  obs::Registry::global().timer("t.dump.timer").record_ns(1000);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rshc_obs_dump_test";
  std::filesystem::remove_all(dir);
  ::setenv("RSHC_DUMP_METRICS", "1", 1);
  ::setenv("RSHC_DUMP_REPORT", "1", 1);
  obs::maybe_dump((dir / "nested" / "run").string());
  ::unsetenv("RSHC_DUMP_METRICS");
  ::unsetenv("RSHC_DUMP_REPORT");

  EXPECT_TRUE(std::filesystem::exists(dir / "nested" / "run.metrics.csv"));
  const std::filesystem::path report = dir / "nested" / "run.report.json";
  ASSERT_TRUE(std::filesystem::exists(report));

  std::ifstream is(report);
  std::stringstream buf;
  buf << is.rdbuf();
  JsonParser parser(buf.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  EXPECT_EQ(root.at("schema").string, "rshc.perf_report");
  EXPECT_DOUBLE_EQ(root.at("schema_version").number,
                   obs::report::kSchemaVersion);
  EXPECT_EQ(root.at("suite").string, "run");
  ASSERT_EQ(root.at("phases").kind, JsonValue::Kind::kArray);
  bool saw_timer = false;
  for (const auto& ph : root.at("phases").array) {
    if (ph.at("name").string == "t.dump.timer") saw_timer = true;
  }
  EXPECT_TRUE(saw_timer);
  std::filesystem::remove_all(dir);
}

// --- c2p work counters -----------------------------------------------------

enum class StepPath { kSerial, kDataflowParallel, kDevice };

std::string step_path_name(const ::testing::TestParamInfo<StepPath>& info) {
  switch (info.param) {
    case StepPath::kSerial: return "Serial";
    case StepPath::kDataflowParallel: return "DataflowParallel";
    case StepPath::kDevice: return "Device";
  }
  return "Unknown";
}

class C2PCounters : public ObsIntegration,
                    public ::testing::WithParamInterface<StepPath> {};

// The solver.c2p.iterations and solver.c2p.floored_zones counters carry
// exactly the solver's c2p_stats() on every stepping path, so a run report
// alone shows the Newton work and the floor hits.
TEST_P(C2PCounters, MatchSolverStatsAfterSteps) {
  solver::SrmhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.blocks = {2, 2, 1};
  // A starved Newton solve floors some zones, so both counters move.
  opt.physics.c2p.max_iterations = 2;
  if (GetParam() == StepPath::kDevice) {
    opt.pipeline = solver::HostPipeline::kDevice;
    opt.accel = {0.0, std::numeric_limits<double>::infinity(), 0.0};
  }
  solver::SrmhdSolver s(mesh::Grid::make_2d(32, 32, -1.0, 1.0, -1.0, 1.0),
                        opt);
  s.initialize(problems::mhd_blast2d_ic({}));
  const double dt = 0.5 * s.compute_dt();
  parallel::ThreadPool pool(2);
  constexpr int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) {
    switch (GetParam()) {
      case StepPath::kSerial:
      case StepPath::kDevice:
        s.step(dt);
        break;
      case StepPath::kDataflowParallel:
        s.run_steps_dataflow(1, dt, pool);
        break;
    }
  }

  const solver::C2PStats& stats = s.c2p_stats();
  EXPECT_GT(stats.total_iterations, 0);
  EXPECT_GT(stats.floored_zones, 0);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.value_or("solver.c2p.iterations"),
            static_cast<double>(stats.total_iterations));
  EXPECT_EQ(snap.value_or("solver.c2p.floored_zones"),
            static_cast<double>(stats.floored_zones));
}

INSTANTIATE_TEST_SUITE_P(Paths, C2PCounters,
                         ::testing::Values(StepPath::kSerial,
                                           StepPath::kDataflowParallel,
                                           StepPath::kDevice),
                         step_path_name);

}  // namespace

#else  // !RSHC_OBS_ENABLED

namespace {

TEST(ObsIntegration, DisabledBuildCompilesWithoutInstrumentation) {
  // With RSHC_OBS=OFF the macros vanish; nothing to integrate against.
  SUCCEED();
}

}  // namespace

#endif  // RSHC_OBS_ENABLED
