// Live-telemetry layer: the periodic Registry sampler (ring + JSONL
// stream + counter-event re-emission), the solver heartbeat gauges, the
// stall watchdog (true positive on a seeded never-completing task-graph
// node, quiet under genuine multi-thread load), and the structured event
// journal with git-sha provenance and the rshc::check failure hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "rshc/check/check.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/device/event.hpp"
#include "rshc/obs/journal.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/obs/telemetry.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/parallel/watchdog.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/json_mini.hpp"

#if RSHC_OBS_ENABLED

namespace {

using namespace rshc;
using namespace std::chrono_literals;
using obs::telemetry::Sampler;
using obs::telemetry::SamplerOptions;
using parallel::Watchdog;
using parallel::WatchdogOptions;
using parallel::WatchdogPolicy;
using testsupport::JsonParser;
using testsupport::JsonValue;

class Telemetry : public ::testing::Test {
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
    obs::journal::Journal::global().close();
  }

  static std::filesystem::path temp_file(const std::string& name) {
    const auto dir =
        std::filesystem::temp_directory_path() / "rshc_telemetry_test";
    std::filesystem::create_directories(dir);
    return dir / name;
  }

  static std::vector<JsonValue> parse_jsonl(const std::filesystem::path& p) {
    std::ifstream is(p);
    std::vector<JsonValue> lines;
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      JsonParser parser(line);
      lines.push_back(parser.parse());
      EXPECT_TRUE(parser.ok()) << parser.error() << " in: " << line;
    }
    return lines;
  }
};

TEST_F(Telemetry, SamplerStreamsSchemaVersionedJsonl) {
  const auto path = temp_file("sampler.jsonl");
  obs::Registry::global().counter("t.tele.bytes").add(128);
  obs::Registry::global().gauge("t.tele.gauge").set(2.5);

  SamplerOptions opt;
  opt.interval = 5ms;
  opt.jsonl_path = path.string();
  Sampler sampler(opt);
  sampler.sample_now();
  obs::Registry::global().counter("t.tele.bytes").add(128);
  sampler.sample_now();
  EXPECT_EQ(sampler.samples_taken(), 2);

  const auto lines = parse_jsonl(path);
  ASSERT_GE(lines.size(), 3u);  // config + 2 samples
  const JsonValue& config = lines[0];
  EXPECT_EQ(config.at("schema").string, "rshc.telemetry");
  EXPECT_DOUBLE_EQ(config.at("v").number, obs::telemetry::kSchemaVersion);
  EXPECT_EQ(config.at("kind").string, "config");
  EXPECT_DOUBLE_EQ(config.at("interval_ms").number, 5.0);

  double prev_seq = -1.0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& s = lines[i];
    EXPECT_EQ(s.at("schema").string, "rshc.telemetry");
    EXPECT_EQ(s.at("kind").string, "sample");
    EXPECT_GT(s.at("seq").number, prev_seq);  // contiguous take order
    prev_seq = s.at("seq").number;
    ASSERT_TRUE(s.has("hb"));
    EXPECT_TRUE(s.at("hb").has("step"));
    EXPECT_TRUE(s.at("hb").has("zones_per_sec"));
    ASSERT_TRUE(s.has("metrics"));
  }
  // The counter's running total lands in the last sample's metrics map.
  EXPECT_DOUBLE_EQ(lines.back().at("metrics").at("t.tele.bytes").number,
                   256.0);
  EXPECT_DOUBLE_EQ(lines.back().at("metrics").at("t.tele.gauge").number, 2.5);
  std::filesystem::remove(path);
}

TEST_F(Telemetry, SamplerRingKeepsNewestOldestFirst) {
  SamplerOptions opt;
  opt.ring_capacity = 4;
  Sampler sampler(opt);
  for (int i = 0; i < 6; ++i) sampler.sample_now();
  const auto samples = sampler.samples();
  ASSERT_EQ(samples.size(), 4u);
  // Six takes through a 4-deep ring leave seq 2..5, oldest first.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].seq, static_cast<std::int64_t>(i + 2));
  }
}

TEST_F(Telemetry, SamplerEmitsCounterEventsWhileTracing) {
  obs::Registry::global().counter("t.tele.track").add(42);
  SamplerOptions opt;
  opt.counter_tracks = {"t.tele.track", "t.tele.absent"};
  Sampler sampler(opt);
  obs::set_tracing(true);
  sampler.sample_now();
  obs::set_tracing(false);

  bool saw = false;
  for (const auto& e : obs::Tracer::global().events()) {
    if (e.kind != obs::EventKind::kCounter) continue;
    EXPECT_EQ(std::string(e.name), "t.tele.track");  // absent one skipped
    EXPECT_DOUBLE_EQ(e.value, 42.0);
    EXPECT_EQ(e.pid, 0);  // global-registry samples ride the pid-0 track
    saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST_F(Telemetry, BackgroundSamplerCollectsAndStops) {
  SamplerOptions opt;
  opt.interval = 2ms;
  Sampler sampler(opt);
  sampler.start();
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (sampler.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  sampler.stop();  // joins + takes one final sample
  const auto taken = sampler.samples_taken();
  EXPECT_GE(taken, 4);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(sampler.samples_taken(), taken) << "sampler kept running";
  sampler.stop();  // idempotent
}

TEST_F(Telemetry, SolverStepsPublishHeartbeatGauges) {
  const auto ticks0 = obs::telemetry::heartbeat_ticks();
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(problems::sod().gamma);
  solver::SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), opt);
  s.initialize(problems::shock_tube_ic(problems::sod()));
  constexpr int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) s.step(s.compute_dt());

  EXPECT_EQ(s.steps_taken(), kSteps);
  EXPECT_EQ(obs::telemetry::heartbeat_ticks() - ticks0,
            static_cast<std::uint64_t>(kSteps));
  const obs::telemetry::Heartbeat hb = obs::telemetry::last_heartbeat();
  EXPECT_EQ(hb.step, kSteps);
  EXPECT_DOUBLE_EQ(hb.t, s.time());
  EXPECT_GT(hb.dt, 0.0);
  EXPECT_GT(hb.zones_per_sec, 0.0);

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("solver.hb.step"), kSteps);
  EXPECT_GT(snap.value_or("solver.hb.zones_per_sec"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value_or("solver.hb.mlups"),
                   snap.value_or("solver.hb.zones_per_sec") / 1e6);
}

TEST_F(Telemetry, ParallelStepsPublishHeartbeatToo) {
  const auto ticks0 = obs::telemetry::heartbeat_ticks();
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  opt.blocks = {2, 1, 1};
  solver::SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), opt);
  s.initialize(problems::shock_tube_ic(problems::sod()));
  parallel::ThreadPool pool(2);
  s.step(0.001);
  s.run_steps_dataflow(1, 0.001, pool);
  s.run_steps_dataflow(3, 0.001, pool);
  EXPECT_EQ(s.steps_taken(), 5);
  // One heartbeat per step() call, one per run_steps_dataflow burst.
  EXPECT_EQ(obs::telemetry::heartbeat_ticks() - ticks0, 3u);
  EXPECT_EQ(obs::telemetry::last_heartbeat().step, 5);
}

TEST_F(Telemetry, RestrictedSolverHeartbeatCountsOnlyItsRanksZones) {
  // 2x2 ranks of a 48x48 grid: each rank's restricted solver steps a 24x24
  // block. Its heartbeat rate must be that block's zone-updates over the
  // step's own wall time, so rate x (externally timed step) / (rank zones x
  // stages) is >= 1 (the external timer encloses the heartbeat's) and, on
  // the fastest of a few steps, < 2 (the step dominates its bookkeeping).
  // Counting the global grid instead would put it at >= 4, the rank count.
  constexpr int kRanks = 4;
  constexpr int kSteps = 5;
  const mesh::Grid g = mesh::Grid::make_2d(48, 48, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  const double zone_updates =
      24.0 * 24.0 * time::num_stages(opt.integrator);

  std::array<obs::Registry, kRanks> regs;
  std::array<double, kRanks> min_ratio{};
  comm::run_world(kRanks, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    obs::ScopedRegistry scope(regs[r]);
    solver::DistributedSrhdSolver s(g, c, opt);
    s.initialize(problems::kelvin_helmholtz_ic({}));
    min_ratio[r] = 1e300;
    for (int i = 0; i < kSteps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      s.step(1e-3);
      const double sec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      const double rate =
          regs[r].snapshot().value_or("solver.hb.zones_per_sec");
      min_ratio[r] = std::min(min_ratio[r], rate * sec / zone_updates);
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE(::testing::Message() << "rank " << r);
    EXPECT_GE(min_ratio[static_cast<std::size_t>(r)], 1.0 - 1e-9);
    EXPECT_LT(min_ratio[static_cast<std::size_t>(r)], 2.0);
  }
}

TEST_F(Telemetry, WatchdogDetectsSeededGraphStall) {
  const auto path = temp_file("stall_journal.jsonl");
  obs::journal::Journal::global().open(path.string());

  constexpr auto kTimeout = 150ms;
  WatchdogOptions opt;
  opt.policy = WatchdogPolicy::kWarn;
  opt.timeout = kTimeout;
  Watchdog dog(opt);
  dog.start();

  // Seed a task-graph node that never completes until released: pending
  // work is visible (graph node + a busy worker) with zero progress.
  device::Event release;
  parallel::ThreadPool pool(1);
  parallel::TaskGraph graph;
  graph.add([&release] { release.wait(); });
  const auto t0 = std::chrono::steady_clock::now();
  std::thread runner([&graph, &pool] { graph.run(pool); });

  // Acceptance: detection within 2x the configured timeout.
  const auto deadline = t0 + 2 * kTimeout + 100ms;  // +margin for CI jitter
  while (dog.stalls_detected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  const auto detected = dog.stalls_detected();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  release.set();
  runner.join();
  dog.stop();

  EXPECT_GE(detected, 1) << "watchdog never fired on a seeded stall";
  EXPECT_LE(elapsed, 2 * kTimeout + 100ms);
  EXPECT_GE(obs::journal::Journal::global().events_written(), 1);
  obs::journal::Journal::global().close();

  bool journaled = false;
  for (const auto& line : parse_jsonl(path)) {
    if (line.at("event").string != "watchdog") continue;
    journaled = true;
    EXPECT_EQ(line.at("schema").string, "rshc.journal");
    EXPECT_EQ(line.at("policy").string, "warn");
    EXPECT_GE(line.at("idle_ms").number,
              0.9 * static_cast<double>(kTimeout.count()));
    EXPECT_GE(line.at("pending_nodes").number, 1.0);
    ASSERT_TRUE(line.has("registry"));  // embedded diagnostic snapshot
    EXPECT_TRUE(line.at("registry").has("metrics"));
  }
  EXPECT_TRUE(journaled);
  std::filesystem::remove(path);
}

TEST_F(Telemetry, WatchdogStaysQuietUnderHeavyLoad) {
  // 16 workers churning short tasks for several timeout windows: work is
  // pending on and off the whole time, but progress never stops, so a
  // healthy run must not trip the stall detector.
  WatchdogOptions opt;
  opt.policy = WatchdogPolicy::kWarn;
  opt.timeout = 60ms;
  Watchdog dog(opt);
  dog.start();

  parallel::ThreadPool pool(16);
  constexpr int kTasks = 256;
  const auto until = std::chrono::steady_clock::now() + 400ms;
  while (std::chrono::steady_clock::now() < until) {
    std::latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pool.enqueue([i, &done] {
        volatile double x = static_cast<double>(i);
        for (int k = 0; k < 100; ++k) x = x * 1.0000001 + 1.0;
        done.count_down();
      });
    }
    done.wait();
  }
  dog.stop();
  EXPECT_EQ(dog.stalls_detected(), 0);
}

TEST_F(Telemetry, JournalCarriesProvenanceAndCheckFailures) {
  const auto path = temp_file("journal.jsonl");
  auto& journal = obs::journal::Journal::global();
  journal.open(path.string());
  journal.set_provenance("deadbeef123");
  obs::journal::install_check_hook();

  obs::journal::run_start("unit-run");
  obs::journal::checkpoint("ckpt_0001.bin", 0.25);
  const auto action0 = check::action();
  check::set_action(check::Action::kCount);
  check::fail("telemetry-test", "seeded violation", __FILE__, __LINE__);
  check::set_action(action0);
  check::set_failure_hook(nullptr);
  check::reset();
  obs::journal::run_end("unit-run");
  EXPECT_EQ(journal.events_written(), 4);
  journal.close();

  const auto lines = parse_jsonl(path);
  ASSERT_EQ(lines.size(), 4u);
  const std::vector<std::string> expected = {"run_start", "checkpoint",
                                             "check_failure", "run_end"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("schema").string, "rshc.journal");
    EXPECT_DOUBLE_EQ(lines[i].at("v").number, obs::journal::kSchemaVersion);
    EXPECT_EQ(lines[i].at("event").string, expected[i]);
    EXPECT_EQ(lines[i].at("git_sha").string, "deadbeef123");
    EXPECT_TRUE(lines[i].has("ts_ms"));
    EXPECT_TRUE(lines[i].has("rank"));
  }
  EXPECT_EQ(lines[1].at("path").string, "ckpt_0001.bin");
  EXPECT_DOUBLE_EQ(lines[1].at("t").number, 0.25);
  EXPECT_NE(lines[2].at("report").string.find("seeded violation"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(Telemetry, EnvParsingCoversPoliciesAndDefaults) {
  using parallel::parse_watchdog_policy;
  EXPECT_EQ(parse_watchdog_policy("off"), WatchdogPolicy::kOff);
  EXPECT_EQ(parse_watchdog_policy("0"), WatchdogPolicy::kOff);
  EXPECT_EQ(parse_watchdog_policy(""), WatchdogPolicy::kOff);
  EXPECT_EQ(parse_watchdog_policy("warn"), WatchdogPolicy::kWarn);
  EXPECT_EQ(parse_watchdog_policy("fatal"), WatchdogPolicy::kFatal);

  ::unsetenv("RSHC_TELEMETRY");
  ::unsetenv("RSHC_TELEMETRY_INTERVAL_MS");
  ::unsetenv("RSHC_TELEMETRY_OUT");
  const SamplerOptions sdef = obs::telemetry::sampler_options_from_env();
  EXPECT_TRUE(sdef.enabled);
  EXPECT_EQ(sdef.interval.count(), obs::telemetry::kDefaultIntervalMs);
  EXPECT_TRUE(sdef.jsonl_path.empty());
  EXPECT_FALSE(sdef.counter_tracks.empty());

  ::setenv("RSHC_TELEMETRY", "0", 1);
  ::setenv("RSHC_TELEMETRY_INTERVAL_MS", "37", 1);
  const SamplerOptions soff = obs::telemetry::sampler_options_from_env();
  EXPECT_FALSE(soff.enabled);
  EXPECT_EQ(soff.interval.count(), 37);
  ::unsetenv("RSHC_TELEMETRY");
  ::unsetenv("RSHC_TELEMETRY_INTERVAL_MS");

  ::unsetenv("RSHC_WATCHDOG");
  EXPECT_EQ(parallel::watchdog_options_from_env().policy,
            WatchdogPolicy::kOff);
  ::setenv("RSHC_WATCHDOG", "warn", 1);
  ::setenv("RSHC_WATCHDOG_TIMEOUT_MS", "123", 1);
  const WatchdogOptions wopt = parallel::watchdog_options_from_env();
  EXPECT_EQ(wopt.policy, WatchdogPolicy::kWarn);
  EXPECT_EQ(wopt.timeout.count(), 123);
  ::unsetenv("RSHC_WATCHDOG");
  ::unsetenv("RSHC_WATCHDOG_TIMEOUT_MS");
}

}  // namespace

#else  // !RSHC_OBS_ENABLED

namespace {

TEST(Telemetry, DisabledBuildStubsAreInert) {
  // The header stubs must be callable with zero effect under RSHC_OBS=OFF.
  rshc::obs::telemetry::Sampler sampler;
  sampler.start();
  sampler.sample_now();
  sampler.stop();
  EXPECT_EQ(sampler.samples_taken(), 0);
  rshc::obs::journal::run_start("noop");
  EXPECT_EQ(rshc::obs::journal::Journal::global().events_written(), 0);
}

}  // namespace

#endif  // RSHC_OBS_ENABLED

// The stall rule needs no obs instrumentation, so it is tested in every
// build: a stall fires once per episode however long it is held, and the
// detector re-arms once progress moves.
namespace {

using namespace std::chrono_literals;

// Hold one never-finishing task-graph node (pending work, no progress)
// until `dog` has fired `fired_before + 1` stalls and `hold` more has
// passed; returns the stall count seen just before releasing the node.
std::int64_t hold_graph_stall(const rshc::parallel::Watchdog& dog,
                              std::int64_t fired_before,
                              std::chrono::milliseconds hold) {
  rshc::device::Event release;
  rshc::parallel::ThreadPool pool(1);
  rshc::parallel::TaskGraph graph;
  graph.add([&release] { release.wait(); });
  std::thread runner([&graph, &pool] { graph.run(pool); });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (dog.stalls_detected() <= fired_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  std::this_thread::sleep_for(hold);
  const std::int64_t seen = dog.stalls_detected();
  release.set();
  runner.join();
  return seen;
}

TEST(Watchdog, HeldStallFiresOncePerEpisodeAndRearms) {
  constexpr auto kTimeout = 60ms;
  rshc::parallel::Watchdog dog(
      {rshc::parallel::WatchdogPolicy::kWarn, kTimeout});
  dog.start();
  // Held for 4 more timeouts after the first firing: still one stall.
  EXPECT_EQ(hold_graph_stall(dog, 0, 4 * kTimeout), 1);
  // The release finished a node (progress), so a new stall fires again.
  EXPECT_EQ(hold_graph_stall(dog, 1, 4 * kTimeout), 2);
  dog.stop();
  EXPECT_EQ(dog.stalls_detected(), 2);
}

}  // namespace
