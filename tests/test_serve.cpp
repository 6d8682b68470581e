// Simulation service: admission control, priority preemption with bitwise
// warm resume (against the uninterrupted run and the per-pencil oracle),
// the shared exact-Riemann reference cache, per-job metric isolation,
// running jobs as stall-watchdog sources, and the hardened checkpoint reader it all
// leans on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/io/checkpoint.hpp"
#include "rshc/parallel/watchdog.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/serve/riemann_cache.hpp"
#include "rshc/serve/scenario.hpp"
#include "rshc/serve/service.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

#if RSHC_OBS_ENABLED
#include "rshc/obs/journal.hpp"
#include "rshc/obs/metrics.hpp"
#include "rshc/obs/telemetry.hpp"
#endif

namespace {

using namespace rshc;
using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// True when both spans hold the same bit patterns.
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

serve::ServiceConfig test_config(const std::string& tag) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.checkpoint_dir = temp_path("serve_ckpt_" + tag);
  return cfg;
}

/// Poll until the job has taken at least `steps` steps while running (or
/// reached a terminal state — the caller's assertions catch that).
void wait_for_progress(serve::SimulationService& svc, serve::JobId id,
                       int steps) {
  for (int i = 0; i < 2000; ++i) {
    const auto st = svc.status(id);
    ASSERT_TRUE(st.has_value());
    if (st->steps_done >= steps) return;
    if (st->state == serve::JobState::kCompleted ||
        st->state == serve::JobState::kFailed) {
      return;
    }
    std::this_thread::sleep_for(5ms);
  }
  FAIL() << "job " << id << " never reached " << steps << " steps";
}

// --- Riemann cache -----------------------------------------------------

TEST(RiemannCache, SharesSolutionsAndCountsHits) {
  serve::RiemannCache cache;
  const serve::RiemannCache::State l{1.0, 0.0, 1.0};
  const serve::RiemannCache::State r{0.125, 0.0, 0.1};
  const auto a = cache.lookup(l, r, 1.4);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 1);
  const auto b = cache.lookup(l, r, 1.4);
  EXPECT_EQ(a.get(), b.get());  // the same shared instance, not a rebuild
  EXPECT_EQ(cache.hits(), 1);
  // A different gamma is a different key even with identical states.
  const auto c = cache.lookup(l, r, 5.0 / 3.0);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

// --- scenario catalog --------------------------------------------------

TEST(Scenario, CatalogCoversBothPhysics) {
  EXPECT_TRUE(serve::known_problem(serve::PhysicsKind::kSrhd, "sod"));
  EXPECT_TRUE(serve::known_problem(serve::PhysicsKind::kSrhd, "kh"));
  EXPECT_TRUE(serve::known_problem(serve::PhysicsKind::kSrmhd, "balsara1"));
  EXPECT_FALSE(serve::known_problem(serve::PhysicsKind::kSrmhd, "sod"));
  EXPECT_FALSE(serve::known_problem(serve::PhysicsKind::kSrhd, "nope"));
  EXPECT_EQ(serve::problem_ndim(serve::PhysicsKind::kSrhd, "sod"), 1);
  EXPECT_EQ(serve::problem_ndim(serve::PhysicsKind::kSrhd, "blast2d"), 2);
  EXPECT_EQ(serve::problem_ndim(serve::PhysicsKind::kSrmhd, "field_loop"), 2);

  serve::JobSpec spec;
  spec.problem = "kh";
  spec.resolution = 32;
  EXPECT_EQ(serve::spec_zones(spec), 32 * 32);
  spec.problem = "sod";
  EXPECT_EQ(serve::spec_zones(spec), 32);
  EXPECT_TRUE(serve::validation_supported(spec));
  spec.problem = "kh";
  EXPECT_FALSE(serve::validation_supported(spec));
}

// --- admission control -------------------------------------------------

TEST(ServeAdmission, RejectsInvalidSpecs) {
  serve::SimulationService svc(test_config("invalid"));
  serve::JobSpec spec;

  spec.problem = "no_such_problem";
  auto a = svc.submit(spec);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("unknown problem"), std::string::npos) << a.reason;

  spec.problem = "sod";
  spec.steps = 0;
  a = svc.submit(spec);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("steps"), std::string::npos) << a.reason;

  spec.steps = 4;
  spec.problem = "kh";
  spec.validate = true;
  a = svc.submit(spec);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("validation"), std::string::npos) << a.reason;

  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.rejected, 3);
  EXPECT_EQ(stats.admitted, 0);
}

TEST(ServeAdmission, RejectsWhenQueueFull) {
  auto cfg = test_config("queue_full");
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  serve::SimulationService svc(cfg);

  serve::JobSpec slow;
  slow.problem = "sod";
  slow.resolution = 32;
  slow.steps = 40;
  slow.step_delay_ms = 20;
  const auto running = svc.submit(slow);
  ASSERT_TRUE(running.admitted);
  wait_for_progress(svc, running.id, 1);  // off the queue, onto the worker

  serve::JobSpec quick = slow;
  quick.steps = 2;
  quick.step_delay_ms = 0;
  ASSERT_TRUE(svc.submit(quick).admitted);
  ASSERT_TRUE(svc.submit(quick).admitted);
  const auto overflow = svc.submit(quick);
  EXPECT_FALSE(overflow.admitted);
  EXPECT_NE(overflow.reason.find("queue full"), std::string::npos)
      << overflow.reason;
  svc.wait_idle();
  EXPECT_EQ(svc.stats().completed, 3);
}

TEST(ServeAdmission, RejectsWhenZoneBudgetExceeded) {
  auto cfg = test_config("budget");
  cfg.zone_budget = 1000;
  serve::SimulationService svc(cfg);

  serve::JobSpec big;
  big.problem = "kh";  // 40 x 40 = 1600 zones > 1000
  big.resolution = 40;
  big.steps = 1;
  const auto a = svc.submit(big);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("zone budget"), std::string::npos) << a.reason;

  big.resolution = 16;  // 256 zones: fits
  EXPECT_TRUE(svc.submit(big).admitted);
  svc.wait_idle();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.zones_admitted, 0);  // released at the terminal state
}

// --- preempt / warm resume ---------------------------------------------

/// Uninterrupted reference run of `spec`, checkpointed at the end.
void run_reference(serve::JobSpec spec, const std::string& out) {
  auto engine = serve::make_engine(spec);
  engine->initialize();
  for (int i = 0; i < spec.steps; ++i) engine->step();
  engine->checkpoint(out);
}

/// Run `spec` on a one-worker service, preempt it once mid-run, let it
/// resume and finish; returns the path of its result checkpoint.
std::string run_preempted(serve::JobSpec spec, const std::string& tag) {
  auto cfg = test_config(tag);
  cfg.workers = 1;
  serve::SimulationService svc(cfg);
  spec.result_checkpoint = temp_path("svc_" + tag + ".ckpt");
  spec.step_delay_ms = 10;  // widen the preemption window
  const auto a = svc.submit(spec);
  EXPECT_TRUE(a.admitted) << a.reason;
  if (!a.admitted) return spec.result_checkpoint;
  wait_for_progress(svc, a.id, 3);
  svc.preempt(a.id);
  const auto st = svc.wait(a.id);
  EXPECT_EQ(st.state, serve::JobState::kCompleted) << st.message;
  EXPECT_EQ(st.steps_done, spec.steps);
  EXPECT_GE(st.preempts, 1) << "job finished before the preempt landed";
  EXPECT_EQ(st.resumes, st.preempts);
  return spec.result_checkpoint;
}

serve::JobSpec resume_spec(serve::PhysicsKind physics,
                           const std::string& problem,
                           const std::string& tag) {
  serve::JobSpec spec;
  spec.name = "resume_" + tag;
  spec.physics = physics;
  spec.problem = problem;
  spec.resolution = 64;
  spec.steps = 12;
  return spec;
}

void expect_bitwise_resume(serve::PhysicsKind physics,
                           const std::string& problem,
                           const std::string& tag) {
  const serve::JobSpec spec = resume_spec(physics, problem, tag);
  const std::string ref_path = temp_path("ref_" + tag + ".ckpt");
  run_reference(spec, ref_path);
  const std::string got_path = run_preempted(spec, tag);
  ASSERT_FALSE(::testing::Test::HasFailure());

  const std::string ref = read_file_bytes(ref_path);
  const std::string got = read_file_bytes(got_path);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_TRUE(ref == got)
      << "preempted run diverged bitwise from the uninterrupted run ("
      << tag << ")";
}

/// Preempted service run vs the per-pencil oracle: `ref` is a solver built
/// with the catalog's grid, options and initial data for `spec` (a
/// mismatched grid or physics makes read_checkpoint throw). The oracle
/// steps it `spec.steps` adaptive steps uninterrupted; the service's
/// result must match its cons, prims and time bit for bit.
template <typename Physics>
void expect_resume_matches_pencil(const serve::JobSpec& spec,
                                  solver::FvSolver<Physics>& ref,
                                  const std::string& tag) {
  testsupport::PencilReference oracle(ref);
  for (int i = 0; i < spec.steps; ++i) {
    oracle.reference_step(oracle.reference_dt());
  }
  const std::string got_path = run_preempted(spec, tag);
  ASSERT_FALSE(::testing::Test::HasFailure());

  solver::FvSolver<Physics> got(ref.grid(), ref.options());
  io::read_checkpoint(got_path, got);
  EXPECT_EQ(got.time(), ref.time());
  ASSERT_EQ(got.num_blocks(), ref.num_blocks());
  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_TRUE(bits_equal(got.block(b).cons().flat(),
                           ref.block(b).cons().flat()))
        << "cons diverged from the pencil oracle on block " << b << " ("
        << tag << ")";
    EXPECT_TRUE(bits_equal(got.block(b).prim().flat(),
                           ref.block(b).prim().flat()))
        << "prims diverged from the pencil oracle on block " << b << " ("
        << tag << ")";
  }
}

TEST(ServePreemptResume, BitwiseIdenticalSrhdPencil) {
  const auto spec =
      resume_spec(serve::PhysicsKind::kSrhd, "sod", "srhd_pencil");
  const auto tube = problems::sod();
  solver::SrhdSolver::Options opt;
  opt.recon = spec.recon;
  opt.cfl = spec.cfl;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.riemann = spec.riemann;
  opt.physics.eos = eos::IdealGas{tube.gamma};
  solver::SrhdSolver ref(mesh::Grid::make_1d(spec.resolution, 0.0, 1.0), opt);
  ref.initialize(problems::shock_tube_ic(tube));
  expect_resume_matches_pencil(spec, ref, "srhd_pencil");
}

TEST(ServePreemptResume, BitwiseIdenticalSrhdBatched) {
  expect_bitwise_resume(serve::PhysicsKind::kSrhd, "sod", "srhd_batched");
}

TEST(ServePreemptResume, BitwiseIdenticalSrmhdPencil) {
  const auto spec =
      resume_spec(serve::PhysicsKind::kSrmhd, "balsara1", "srmhd_pencil");
  const auto tube = problems::balsara_1();
  solver::SrmhdSolver::Options opt;
  opt.recon = spec.recon;
  opt.cfl = spec.cfl;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas{tube.gamma};
  solver::SrmhdSolver ref(mesh::Grid::make_1d(spec.resolution, 0.0, 1.0),
                          opt);
  ref.initialize(problems::mhd_shock_tube_ic(tube));
  expect_resume_matches_pencil(spec, ref, "srmhd_pencil");
}

TEST(ServePreemptResume, BitwiseIdenticalSrmhdBatched) {
  expect_bitwise_resume(serve::PhysicsKind::kSrmhd, "balsara1",
                        "srmhd_batched");
}

TEST(ServePreemptResume, HighPrioritySubmissionEvictsBatchJob) {
  auto cfg = test_config("priority");
  cfg.workers = 1;
  serve::SimulationService svc(cfg);

  serve::JobSpec batch;
  batch.name = "batch";
  batch.problem = "sod";
  batch.resolution = 32;
  batch.steps = 60;
  batch.step_delay_ms = 15;
  batch.priority = serve::Priority::kBatch;
  const auto low = svc.submit(batch);
  ASSERT_TRUE(low.admitted);
  wait_for_progress(svc, low.id, 1);

  serve::JobSpec urgent = batch;
  urgent.name = "urgent";
  urgent.steps = 2;
  urgent.step_delay_ms = 0;
  urgent.priority = serve::Priority::kHigh;
  const auto high = svc.submit(urgent);
  ASSERT_TRUE(high.admitted);

  const auto high_st = svc.wait(high.id);
  EXPECT_EQ(high_st.state, serve::JobState::kCompleted) << high_st.message;
  const auto low_st = svc.wait(low.id);
  EXPECT_EQ(low_st.state, serve::JobState::kCompleted) << low_st.message;
  EXPECT_GE(low_st.preempts, 1);
  EXPECT_GE(low_st.resumes, 1);
  EXPECT_EQ(low_st.steps_done, batch.steps);
  EXPECT_EQ(svc.stats().preempted, low_st.preempts);
}

// --- validation + shared cache ----------------------------------------

TEST(ServeValidation, ValidationJobsShareTheExactReference) {
  serve::RiemannCache::global().clear();
  serve::SimulationService svc(test_config("validation"));

  serve::JobSpec spec;
  spec.problem = "sod";
  spec.resolution = 64;
  spec.steps = 24;
  spec.validate = true;
  std::vector<serve::JobId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto a = svc.submit(spec);
    ASSERT_TRUE(a.admitted) << a.reason;
    ids.push_back(a.id);
  }
  for (const auto id : ids) {
    const auto st = svc.wait(id);
    ASSERT_EQ(st.state, serve::JobState::kCompleted) << st.message;
    EXPECT_GT(st.l1_error, 0.0);
    EXPECT_LT(st.l1_error, 0.1);  // PLM on 64 zones resolves Sod well
  }
  // One root find, shared by everyone else.
  EXPECT_EQ(serve::RiemannCache::global().misses(), 1);
  EXPECT_EQ(serve::RiemannCache::global().hits(), 2);
}

// --- stall monitoring --------------------------------------------------

TEST(ServeStallMonitor, FlagsRunningJobButNotQueuedOne) {
  auto cfg = test_config("stall");
  cfg.workers = 1;
  parallel::Watchdog dog({parallel::WatchdogPolicy::kWarn, 60ms});
  dog.start();
  serve::SimulationService svc(cfg);

  serve::JobSpec crawler;
  crawler.name = "crawler";
  crawler.problem = "sod";
  crawler.resolution = 32;
  crawler.steps = 3;
  crawler.step_delay_ms = 300;  // well past the 60ms stall alarm
  const auto slow = svc.submit(crawler);
  ASSERT_TRUE(slow.admitted);

  serve::JobSpec waiter = crawler;
  waiter.name = "waiter";
  waiter.step_delay_ms = 0;
  const auto queued = svc.submit(waiter);
  ASSERT_TRUE(queued.admitted);

  const auto slow_st = svc.wait(slow.id);
  const auto queued_st = svc.wait(queued.id);
  EXPECT_EQ(slow_st.state, serve::JobState::kCompleted);
  EXPECT_EQ(queued_st.state, serve::JobState::kCompleted);
  // The crawling job trips the watchdog; the job that spent the
  // same wall time *queued* must not (idle-in-queue is not a stall).
  EXPECT_GE(slow_st.stalls, 1);
  EXPECT_EQ(queued_st.stalls, 0);
  EXPECT_GE(svc.stats().stalled, slow_st.stalls);
}

// --- per-job isolation (obs builds only) -------------------------------

#if RSHC_OBS_ENABLED

TEST(ServeIsolation, JobMetricsLandInJobRegistryNotGlobal) {
  const auto global_before =
      obs::Registry::global().snapshot().value_or("solver.steps", 0.0);
  const auto ticks_before = obs::telemetry::heartbeat_ticks();

  serve::SimulationService svc(test_config("isolation"));
  serve::JobSpec spec;
  spec.problem = "sod";
  spec.resolution = 32;
  spec.steps = 7;
  const auto a = svc.submit(spec);
  ASSERT_TRUE(a.admitted);
  const auto st = svc.wait(a.id);
  ASSERT_EQ(st.state, serve::JobState::kCompleted) << st.message;

  // The job's own registry saw its 7 steps (plus heartbeat gauges)...
  const auto snap = svc.job_snapshot(a.id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value_or("solver.steps", 0.0), 7.0);
  EXPECT_EQ(snap->value_or("solver.hb.step", 0.0), 7.0);

  // ...while the process-global registry, heartbeat view, and watchdog
  // ticker saw none of it (satellite fix: a scoped job must not tick the
  // global watchdog or smear the global heartbeat).
  EXPECT_EQ(obs::Registry::global().snapshot().value_or("solver.steps", 0.0),
            global_before);
  EXPECT_EQ(obs::telemetry::heartbeat_ticks(), ticks_before);
}

#endif  // RSHC_OBS_ENABLED

// --- hardened checkpoint reader ----------------------------------------

class CheckpointHardening : public ::testing::Test {
 protected:
  static serve::JobSpec spec() {
    serve::JobSpec s;
    s.problem = "sod";
    s.resolution = 32;
    s.steps = 4;
    return s;
  }

  /// A valid checkpoint from a short Sod run.
  static std::string write_valid(const std::string& name) {
    const std::string path = temp_path(name);
    auto engine = serve::make_engine(spec());
    engine->initialize();
    for (int i = 0; i < 4; ++i) engine->step();
    engine->checkpoint(path);
    return path;
  }

  static void corrupt_bytes(const std::string& path, std::streamoff at,
                            const char* bytes, std::streamsize n) {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(at);
    f.write(bytes, n);
  }

  static void truncate_to(const std::string& src, const std::string& dst,
                          std::size_t n) {
    const std::string all = read_file_bytes(src);
    ASSERT_LT(n, all.size());
    std::ofstream f(dst, std::ios::binary);
    f.write(all.data(), static_cast<std::streamsize>(n));
  }
};

TEST_F(CheckpointHardening, RejectsBadMagicAndBadVersion) {
  const std::string path = write_valid("hard_magic.ckpt");
  auto engine = serve::make_engine(spec());
  engine->initialize();

  const std::string magic_path = temp_path("hard_magic_bad.ckpt");
  std::ofstream(magic_path, std::ios::binary) << read_file_bytes(path);
  const char bad_magic[4] = {'J', 'U', 'N', 'K'};
  corrupt_bytes(magic_path, 0, bad_magic, 4);
  try {
    engine->restore(magic_path);
    FAIL() << "bad magic accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }

  const std::string ver_path = temp_path("hard_version_bad.ckpt");
  std::ofstream(ver_path, std::ios::binary) << read_file_bytes(path);
  const char bad_version[4] = {99, 0, 0, 0};
  corrupt_bytes(ver_path, 4, bad_version, 4);
  try {
    engine->restore(ver_path);
    FAIL() << "bad version accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointHardening, TruncatedFileFailsWithoutMutatingSolver) {
  const std::string path = write_valid("hard_trunc.ckpt");
  const std::string short_path = temp_path("hard_trunc_short.ckpt");
  truncate_to(path, short_path, 56 + 100);  // header + partial payload

  const mesh::Grid g = mesh::Grid::make_1d(32, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  solver::SrhdSolver s(g, opt);
  s.initialize([](double, double, double) {
    return srhd::Prim{2.0, 0.0, 0.0, 0.0, 3.0};
  });
  const auto rho_before = s.gather_prim_var(srhd::kRho);

  try {
    io::read_checkpoint(short_path, s);
    FAIL() << "truncated checkpoint accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // The pre-validation must reject before streaming a single zone: the
  // solver still holds its initial state, not a half-restored hybrid.
  const auto rho_after = s.gather_prim_var(srhd::kRho);
  ASSERT_EQ(rho_before.size(), rho_after.size());
  for (std::size_t i = 0; i < rho_before.size(); ++i) {
    EXPECT_EQ(rho_before[i], rho_after[i]) << i;
  }

  // Header-only truncation is caught too.
  const std::string header_path = temp_path("hard_trunc_header.ckpt");
  truncate_to(path, header_path, 20);
  EXPECT_THROW(io::read_checkpoint(header_path, s), Error);
}

TEST_F(CheckpointHardening, MismatchedPhysicsFailsClearly) {
  const std::string path = write_valid("hard_physics.ckpt");  // SRHD, 5 vars
  const mesh::Grid g = mesh::Grid::make_1d(32, 0.0, 1.0);
  solver::SrmhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  solver::SrmhdSolver mhd(g, opt);
  mhd.initialize([](double, double, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    return w;
  });
  try {
    io::read_checkpoint(path, mhd);
    FAIL() << "SRHD checkpoint restored into SRMHD solver";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("physics mismatch"),
              std::string::npos)
        << e.what();
  }
}

#if RSHC_OBS_ENABLED

TEST_F(CheckpointHardening, FailuresAreJournaled) {
  const std::string journal_path = temp_path("hard_journal.jsonl");
  obs::journal::Journal::global().open(journal_path);

  const std::string path = write_valid("hard_journal.ckpt");
  const std::string short_path = temp_path("hard_journal_short.ckpt");
  truncate_to(path, short_path, 80);
  auto engine = serve::make_engine(spec());
  engine->initialize();
  EXPECT_THROW(engine->restore(short_path), Error);
  // A successful restore journals too.
  engine->restore(path);
  obs::journal::Journal::global().close();

  const std::string journal = read_file_bytes(journal_path);
  EXPECT_NE(journal.find("\"checkpoint_error\""), std::string::npos);
  EXPECT_NE(journal.find("truncated"), std::string::npos);
  EXPECT_NE(journal.find("\"restore\""), std::string::npos);
}

#endif  // RSHC_OBS_ENABLED

// --- saturating mixed workload -----------------------------------------

TEST(ServeWorkload, SaturatedMixedWorkloadLosesNothing) {
  auto cfg = test_config("mixed");
  cfg.workers = 4;
  serve::SimulationService svc(cfg);

  struct Mix {
    const char* problem;
    serve::PhysicsKind physics;
    long long resolution;
    int steps;
  };
  const Mix mixes[] = {
      {"sod", serve::PhysicsKind::kSrhd, 48, 6},
      {"mm1", serve::PhysicsKind::kSrhd, 48, 6},
      {"kh", serve::PhysicsKind::kSrhd, 12, 2},
      {"balsara1", serve::PhysicsKind::kSrmhd, 48, 4},
      {"mhd_blast", serve::PhysicsKind::kSrmhd, 12, 2},
      {"field_loop", serve::PhysicsKind::kSrmhd, 12, 2},
  };
  constexpr int kJobs = 36;
  std::vector<serve::JobId> ids;
  for (int i = 0; i < kJobs; ++i) {
    const Mix& m = mixes[static_cast<std::size_t>(i) % std::size(mixes)];
    serve::JobSpec spec;
    spec.name = std::string(m.problem) + "_" + std::to_string(i);
    spec.problem = m.problem;
    spec.physics = m.physics;
    spec.resolution = m.resolution;
    spec.steps = m.steps;
    spec.priority = (i % 8 == 7)   ? serve::Priority::kHigh
                    : (i % 3 == 0) ? serve::Priority::kBatch
                                   : serve::Priority::kNormal;
    const auto a = svc.submit(spec);
    ASSERT_TRUE(a.admitted) << i << ": " << a.reason;
    ids.push_back(a.id);
  }
  for (const auto id : ids) {
    const auto st = svc.wait(id);
    EXPECT_EQ(st.state, serve::JobState::kCompleted)
        << st.name << ": " << st.message;
    EXPECT_EQ(st.steps_done, st.steps_total) << st.name;
    EXPECT_GE(st.latency_ms, 0.0);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.admitted, kJobs);
  EXPECT_EQ(stats.completed, kJobs);  // zero lost...
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queued, 0);  // ...zero duplicated or stuck
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.zones_admitted, 0);
}

TEST(ServeShutdown, CancelsQueuedJobsAndReportsThem) {
  auto cfg = test_config("shutdown");
  cfg.workers = 1;
  serve::SimulationService svc(cfg);

  serve::JobSpec slow;
  slow.problem = "sod";
  slow.resolution = 32;
  slow.steps = 10;
  slow.step_delay_ms = 20;
  const auto running = svc.submit(slow);
  ASSERT_TRUE(running.admitted);
  wait_for_progress(svc, running.id, 1);

  serve::JobSpec queued = slow;
  queued.step_delay_ms = 0;
  const auto waiting = svc.submit(queued);
  ASSERT_TRUE(waiting.admitted);

  svc.shutdown();
  EXPECT_FALSE(svc.submit(queued).admitted);  // no work after shutdown
  const auto cancelled = svc.wait(waiting.id);
  EXPECT_EQ(cancelled.state, serve::JobState::kCancelled);
  const auto finished = svc.wait(running.id);  // running jobs drain
  EXPECT_EQ(finished.state, serve::JobState::kCompleted);
  EXPECT_EQ(svc.stats().cancelled, 1);
}

}  // namespace
