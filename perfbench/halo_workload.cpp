// halo-4rank: kh-srhd's physics on a 2x2 DistributedSrhdSolver with small
// per-rank blocks and a modeled per-message latency standing in for the
// cluster fabric, overlap on. The only workload where halo pack/wait/unpack
// and the dt allreduce are a large share of a step.
//
// Four threads in total: the calling thread runs rank 0, three threads run
// the other ranks. Episodes end at a collective stop decision, so every
// rank always takes the same steps; each episode's gathered end state must
// be bitwise equal to an untimed serial FvSolver run of the same grid and
// steps.

#include <array>
#include <cstring>
#include <exception>
#include <memory>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layer_probe.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/mesh/boundary.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/time/integrator.hpp"

namespace perfbench {
namespace {

namespace sv = rshc::solver;

constexpr int kRanks = 4;
constexpr int kN = 64;                  // global cells per axis, 32^2 per rank
constexpr int kEpisodeSteps = 40;
constexpr double kLatencySec = 100e-6;  // modeled per-message latency
constexpr int kProbeTag = 900001;       // above every tag the solver uses

struct RankLog {
  std::vector<double> setup_s;
  StepLog plain, traced;
  // Traced phase only.
  std::vector<double> pack_ns_per_byte, unpack_ns_per_byte, sendrecv_s,
      allreduce_s;
  double compute_step_s = 0.0;
};

}  // namespace

Result run_halo_4rank(const RunOptions& o) {
  Rng rng(o.seed);
  rshc::problems::KelvinHelmholtz kh;
  kh.shear_velocity = rng.uniform(0.24, 0.26);
  kh.layer_width = rng.uniform(0.045, 0.055);
  kh.perturb_amplitude = rng.uniform(0.009, 0.011);
  const auto ic = rshc::problems::kelvin_helmholtz_ic(kh);
  const auto grid = rshc::mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
  sv::DistributedSrhdSolver::Options opt;
  opt.recon = rshc::recon::Method::kPLMMC;
  opt.physics.riemann = rshc::riemann::Solver::kHLL;
  opt.physics.eos = rshc::eos::IdealGas(4.0 / 3.0);
  opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kPeriodic);
  const int stages = rshc::time::num_stages(opt.integrator);
  const double zone_updates_per_step =
      static_cast<double>(grid.num_cells()) * stages;
  constexpr int kNumVars = sv::SrhdPhysics::kNumPrim;

  // Untimed serial reference of one episode.
  std::vector<std::vector<double>> reference;
  {
    sv::SrhdSolver serial(grid, opt);
    serial.initialize(ic);
    for (int i = 0; i < kEpisodeSteps; ++i) serial.step(serial.compute_dt());
    for (int v = 0; v < kNumVars; ++v) {
      reference.push_back(serial.gather_prim_var(v));
    }
  }

  Result r;
  rshc::comm::TransferModel model;
  model.latency_sec = kLatencySec;
  rshc::comm::World world(kRanks, model);
  std::array<RankLog, kRanks> logs;
  double messages_per_step = 0.0;
  double bytes_per_step = 0.0;
  double iters_per_zone = 0.0;
  double floored_per_mzone = 0.0;
  double rank_faces = 0.0;
  long long episodes = 0;
  long long mismatched = 0;

  auto body = [&](int rank) {
    try {
      auto comm = world.communicator(rank);
      RankLog& log = logs[static_cast<std::size_t>(rank)];
      std::unique_ptr<sv::DistributedSrhdSolver> s;
      for (int i = 0; i < kSetupReps; ++i) {
        comm.barrier();
        s.reset();
        log.setup_s.push_back(time_call([&] {
          s = std::make_unique<sv::DistributedSrhdSolver>(grid, comm, opt);
          s->set_overlap(true);
          s->initialize(ic);
        }));
      }
      LayerProbe<sv::SrhdPhysics> probe(s->local(), /*time_ghosts=*/false);
      // x-neighbour; with two ranks along x the pairing is symmetric.
      const int partner = *s->topology().neighbor(rank, 0, 1);
      std::vector<double> send_buf(
          rshc::mesh::halo_buffer_size(s->local_block(), 0), 1.0);
      std::vector<double> recv_buf(send_buf.size());

      // Returns false when the rank's gathered state differs from the
      // serial reference (rank 0 only; others always true).
      auto episode = [&](StepLog& log, Clock::time_point start) {
        s->initialize(ic);
        for (int i = 0; i < kEpisodeSteps; ++i) {
          const double t = time_call([&] { s->step(s->compute_dt()); });
          log.add(seconds_since(start), t, zone_updates_per_step);
        }
        std::array<int, kNumVars> vars{};
        for (int v = 0; v < kNumVars; ++v) vars[v] = v;
        const auto state = s->gather_prim_vars_root(vars);
        if (rank != 0) return true;
        for (int v = 0; v < kNumVars; ++v) {
          if (state[v].size() != reference[v].size() ||
              std::memcmp(state[v].data(), reference[v].data(),
                          state[v].size() * sizeof(double)) != 0) {
            return false;
          }
        }
        return true;
      };

      // Warm-up episode: its message traffic (stepping only, not the ghost
      // fill of initialize) and c2p counts are exact.
      s->initialize(ic);
      comm.barrier();
      const std::size_t msgs0 = world.total_messages();
      const std::size_t bytes0 = world.total_bytes();
      comm.barrier();
      for (int i = 0; i < kEpisodeSteps; ++i) s->step(s->compute_dt());
      comm.barrier();
      if (rank == 0) {
        messages_per_step =
            static_cast<double>(world.total_messages() - msgs0) / kEpisodeSteps;
        bytes_per_step =
            static_cast<double>(world.total_bytes() - bytes0) / kEpisodeSteps;
      }
      const auto& st = s->local().c2p_stats();
      const double iters = comm.allreduce(
          static_cast<double>(st.total_iterations),
          rshc::comm::ReduceOp::kSum);
      const double floored = comm.allreduce(
          static_cast<double>(st.floored_zones), rshc::comm::ReduceOp::kSum);
      const double calls =
          static_cast<double>(grid.num_cells()) * stages * kEpisodeSteps;
      if (rank == 0) {
        iters_per_zone = iters / calls;
        floored_per_mzone = floored * 1e6 / calls;
      }

      auto measure = [&](double seconds, bool probed) {
        const auto t0 = Clock::now();
        for (;;) {
          comm.barrier();
          const bool stop = comm.allreduce(
              seconds_since(t0) >= seconds ? 1.0 : 0.0,
              rshc::comm::ReduceOp::kMax) > 0.0;
          if (stop) break;
          const bool ok = episode(probed ? log.traced : log.plain, t0);
          if (rank == 0) {
            ++episodes;
            if (!ok) ++mismatched;
          }
          if (!probed) continue;
          probe.run(2);
          rshc::mesh::Block copy = s->local_block();
          for (int axis = 0; axis < 2; ++axis) {
            std::vector<double> buf(
                rshc::mesh::halo_buffer_size(copy, axis));
            const double bytes = 8.0 * static_cast<double>(buf.size());
            for (int side = 0; side < 2; ++side) {
              log.pack_ns_per_byte.push_back(
                  time_call([&] {
                    rshc::mesh::pack_face(copy, axis, side, buf);
                  }) * 1e9 / bytes);
              log.unpack_ns_per_byte.push_back(
                  time_call([&] {
                    rshc::mesh::unpack_ghost(copy, axis, side, buf);
                  }) * 1e9 / bytes);
            }
          }
          for (int i = 0; i < 4; ++i) {
            comm.barrier();
            log.sendrecv_s.push_back(time_call([&] {
              comm.sendrecv<double>(partner, send_buf, partner, recv_buf,
                                    kProbeTag);
            }));
            log.allreduce_s.push_back(time_call([&] {
              (void)comm.allreduce(1.0, rshc::comm::ReduceOp::kMin);
            }));
          }
        }
      };

      if (!o.trace) {
        measure(o.seconds, false);
      } else {
        measure(0.5 * o.seconds, false);
        measure(0.5 * o.seconds, true);
        log.compute_step_s = probe.compute_step_seconds(stages);
        if (rank == 0) {
          probe.report(r, median(log.traced.latencies()), stages);
          rank_faces = static_cast<double>(probe.faces());
        }
      }
      comm.barrier();
    } catch (const std::exception& e) {
      // The other ranks would wait forever in the next collective.
      std::cerr << "halo-4rank: rank " << rank << ": " << e.what() << "\n";
      std::_Exit(2);
    }
  };

  {
    std::vector<std::jthread> others;
    for (int rank = 1; rank < kRanks; ++rank) {
      others.emplace_back(body, rank);
    }
    body(0);
  }

  const RankLog& l0 = logs[0];
  r.attempted =
      static_cast<long long>(l0.plain.ops.size() + l0.traced.ops.size());
  if (mismatched > 0) {
    r.fail(std::to_string(mismatched) + " of " + std::to_string(episodes) +
               " episodes differ from the serial reference",
           mismatched * kEpisodeSteps);
  }
  if (!o.trace) {
    report_end_to_end(l0.plain.ops, o.seconds, /*serial=*/true, r);
    report_setup(l0.setup_s, r);
    return r;
  }

  // Exposed communication: a rank's step minus its own compute (rhs, rk,
  // c2p per stage plus the CFL scan); the worst rank sets the step.
  double exposed = 0.0;
  double compute_max = 0.0;
  double compute_sum = 0.0;
  for (const RankLog& l : logs) {
    const double step_s = median(l.traced.latencies());
    exposed = std::max(exposed, step_s - l.compute_step_s);
    compute_max = std::max(compute_max, l.compute_step_s);
    compute_sum += l.compute_step_s;
  }
  r.metrics["halo.pack_ns_per_byte"] = median(l0.pack_ns_per_byte);
  r.metrics["halo.unpack_ns_per_byte"] = median(l0.unpack_ns_per_byte);
  r.metrics["halo.messages_per_step"] = messages_per_step;
  r.metrics["halo.bytes_per_step"] = bytes_per_step;
  r.metrics["comm.sendrecv_us"] = median(l0.sendrecv_s) * 1e6;
  r.metrics["comm.allreduce_us"] = median(l0.allreduce_s) * 1e6;
  r.metrics["halo.exposed_ms_per_step"] = exposed * 1e3;
  r.metrics["rank.imbalance"] = compute_max / (compute_sum / kRanks);
  r.metrics["c2p.iters_per_zone"] = iters_per_zone;
  r.metrics["c2p.floored_per_mzone"] = floored_per_mzone;
  r.metrics["work.zones"] = static_cast<double>(grid.num_cells());
  r.metrics["work.faces"] = rank_faces * kRanks;  // equal blocks
  r.metrics["trace.overhead_frac"] =
      1.0 - l0.traced.zone_updates_per_s() / l0.plain.zone_updates_per_s();
  r.info["latency_samples"] = static_cast<double>(l0.traced.ops.size());
  r.info["episodes"] = static_cast<double>(episodes);
  return r;
}

}  // namespace perfbench
