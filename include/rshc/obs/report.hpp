#pragma once
// Schema-versioned JSON run report (DESIGN.md system: observability).
// One RunReport = provenance (git sha, build type/flags, hardware probe)
// plus per-phase statistics (count / sum / min / max and log-bin
// p50/p90/p99 from TimeHist) and, for multi-rank runs, a per-phase
// min/mean/max/imbalance roll-up across ranks. obs::maybe_dump writes it
// as <prefix>.report.json under RSHC_DUMP_REPORT=1; tools/perf_report.py
// validates and prints reports.
//
// Rank awareness has two halves:
//  - RankScope: RAII installed on each in-process rank thread; routes the
//    macro instrumentation into a per-rank Registry (a registry *view* per
//    Communicator rank) and labels the thread's trace events with
//    pid = rank.
//  - rank_rollup(): collective, allreduce-based fold of per-rank phase
//    sums into min/mean/max/imbalance — every rank gets the same answer,
//    mirroring how a real MPI job would aggregate. phases_from_ranks()
//    computes the same numbers in-process from the gathered snapshots.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rshc/comm/communicator.hpp"
#include "rshc/obs/metrics.hpp"

namespace rshc::obs::report {

/// Bump when the JSON layout changes; tools/perf_report.py rejects
/// reports of any other schema version.
inline constexpr int kSchemaVersion = 1;
inline constexpr std::string_view kSchemaName = "rshc.perf_report";

struct HardwareProbe {
  int hardware_threads = 0;
  long page_size = 0;
  std::string cpu_model;  ///< /proc/cpuinfo "model name"; "" if unknown
};

/// Best-effort host description (never throws; fields degrade to 0/"").
[[nodiscard]] HardwareProbe probe_hardware();

/// Cross-rank fold of one phase's per-rank total seconds.
struct RankStats {
  double min_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
  /// max/mean — 1.0 is perfectly balanced, 0 when the phase never ran.
  double imbalance = 0.0;
};

/// One timer's report row.
struct PhaseStats {
  std::string name;
  std::int64_t count = 0;
  double sum_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  std::optional<RankStats> ranks;  ///< present for rank-resolved phases
};

struct RunReport {
  int schema_version = kSchemaVersion;
  std::string suite;  ///< producing program, e.g. "heterogeneous"
  std::string git_sha = "unknown";
  std::string build_type;
  std::string build_flags;
  int ranks = 1;
  HardwareProbe hardware;
  std::vector<PhaseStats> phases;
  std::vector<std::pair<std::string, double>> counters;

  [[nodiscard]] std::string to_json() const;
  void write_file(const std::string& path) const;
};

/// Timer entries of `snap` as report rows, optionally filtered to names
/// starting with `prefix`. Timers that never recorded a sample are
/// skipped (a phase macro touched at static-init time but routed to a
/// scoped registry leaves a zero-count global timer behind).
[[nodiscard]] std::vector<PhaseStats> phases_from_snapshot(
    const Snapshot& snap, std::string_view prefix = {});

/// Counter entries of `snap` as (name, value) rows, same prefix filter.
[[nodiscard]] std::vector<std::pair<std::string, double>>
counters_from_snapshot(const Snapshot& snap, std::string_view prefix = {});

/// Merge per-rank snapshots (index = rank) into report rows: counts and
/// sums add up, min/max fold, percentiles come from the summed bins, and
/// each row carries the cross-rank RankStats. `name_prefix` is prepended
/// to every row name so rank-resolved phases cannot collide with
/// single-process rows of the same timer.
[[nodiscard]] std::vector<PhaseStats> phases_from_ranks(
    std::span<const Snapshot> per_rank, std::string_view name_prefix = {});

/// Collective allreduce-based roll-up: every rank passes its own
/// (scoped-registry) snapshot and the agreed phase-name list; all ranks
/// return identical stats. Costs three allreduces regardless of how many
/// phases are rolled up.
[[nodiscard]] inline std::vector<std::pair<std::string, RankStats>>
rank_rollup(comm::Communicator& comm, const Snapshot& local,
            const std::vector<std::string>& phase_names) {
  std::vector<double> sums(phase_names.size());
  for (std::size_t i = 0; i < phase_names.size(); ++i) {
    sums[i] = local.value_or(phase_names[i]);
  }
  std::vector<double> mins = sums;
  std::vector<double> maxs = sums;
  std::vector<double> totals = sums;
  comm.allreduce(std::span<double>(mins), comm::ReduceOp::kMin);
  comm.allreduce(std::span<double>(maxs), comm::ReduceOp::kMax);
  comm.allreduce(std::span<double>(totals), comm::ReduceOp::kSum);
  std::vector<std::pair<std::string, RankStats>> out;
  out.reserve(phase_names.size());
  const auto nranks = static_cast<double>(comm.size());
  for (std::size_t i = 0; i < phase_names.size(); ++i) {
    RankStats s;
    s.min_s = mins[i];
    s.max_s = maxs[i];
    s.mean_s = totals[i] / nranks;
    s.imbalance = s.mean_s > 0.0 ? s.max_s / s.mean_s : 0.0;
    out.emplace_back(phase_names[i], s);
  }
  return out;
}

/// RAII per-rank observation scope for in-process ranks: routes this
/// thread's metrics into `reg` (see ScopedRegistry), labels its trace
/// events with pid = rank, and registers "rank <r>" process metadata so
/// exported traces show named rank tracks. Install one at the top of each
/// run_world body; `reg` must outlive the scope.
class RankScope {
 public:
  RankScope(Registry& reg, int rank);
  ~RankScope();
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  ScopedRegistry registry_scope_;
  int prev_rank_;
};

}  // namespace rshc::obs::report
