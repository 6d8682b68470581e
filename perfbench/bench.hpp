#pragma once
// Shared pieces of rshc_bench: timing, order statistics, the
// seeded input generator, and the result record every workload fills in.
// Everything here lives outside the library: the workloads only call rshc's
// public API and time those calls from the outside.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Time one call of `f` in seconds.
template <typename F>
[[nodiscard]] double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Busy-wait for `s` seconds. Only the self-test's injected slowdown uses
/// it, inside rshc_bench's own timed region.
inline void spin_for(double s) {
  const auto end = Clock::now() + to_duration(s);
  while (Clock::now() < end) {
  }
}

/// Quantile q in [0, 1], linear interpolation between order statistics;
/// 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// splitmix64 stream: the same seed gives the same inputs with any standard
/// library (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t s_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Factor by which rshc_bench stretches every timed step (self-test
  /// only; 1 = off). Applied here, never inside the library.
  double slowdown = 1.0;
  /// Scratch directory for files a workload writes (checkpoints).
  std::string workdir = ".";
};

/// What one run of one workload produced. `metrics` holds end-to-end
/// metrics in an untraced run and per-layer metrics in a traced one; `info`
/// holds sample counts and other context printed beside the result.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;

  /// Record a failed correctness check covering `ops` operations.
  void fail(std::string why, long long ops) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

/// One timed operation (a step, or a job): when it ended, in seconds since
/// the measured phase began, how long it took, and its zone updates.
struct OpSample {
  double end_s = 0.0;
  double latency_s = 0.0;
  double zone_updates = 0.0;
};

/// The steps of one measured phase, run back to back.
struct StepLog {
  std::vector<OpSample> ops;
  double stepping_s = 0.0;  ///< sum of the steps' wall times

  void add(double end_s, double latency_s, double zone_updates) {
    ops.push_back({end_s, latency_s, zone_updates});
    stepping_s += latency_s;
  }
  [[nodiscard]] double zone_updates_per_s() const {
    double zu = 0.0;
    for (const OpSample& op : ops) zu += op.zone_updates;
    return zu / stepping_s;
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    for (const OpSample& op : ops) v.push_back(op.latency_s);
    return v;
  }
};

/// Windows per measured phase. Each end-to-end metric is the best of its
/// per-window values (highest throughput, lowest latency): on a host whose
/// CPUs are shared with other guests, interference slows some windows but
/// never speeds one up, so the best window tracks the code and the rest
/// track the neighbours.
inline constexpr int kWindows = 6;

/// Fill the end-to-end metrics (all but setup_s and peak_rss_mb) from the
/// operations of a phase of `seconds`. `serial`: operations ran back to
/// back (steps), so throughput is per second of operation time; otherwise
/// (overlapping jobs) it is per second of window.
inline void report_end_to_end(const std::vector<OpSample>& ops,
                              double seconds, bool serial, Result& r) {
  std::vector<std::vector<double>> lat(kWindows);
  std::vector<double> busy(kWindows, 0.0), zu(kWindows, 0.0);
  for (const OpSample& op : ops) {
    const auto w = std::min<std::size_t>(
        kWindows - 1, static_cast<std::size_t>(op.end_s / seconds * kWindows));
    lat[w].push_back(op.latency_s);
    busy[w] += op.latency_s;
    zu[w] += op.zone_updates;
  }
  std::vector<double> zups, opsps, p50, p90, n;
  for (int w = 0; w < kWindows; ++w) {
    if (lat[w].empty()) continue;  // a stall longer than a window
    const double t = serial ? busy[w] : seconds / kWindows;
    zups.push_back(zu[w] / t);
    opsps.push_back(static_cast<double>(lat[w].size()) / t);
    p50.push_back(quantile(lat[w], 0.5) * 1e3);
    p90.push_back(quantile(lat[w], 0.9) * 1e3);
    n.push_back(static_cast<double>(lat[w].size()));
  }
  r.metrics["zone_updates_per_s"] = *std::max_element(zups.begin(), zups.end());
  r.metrics["ops_per_s"] = *std::max_element(opsps.begin(), opsps.end());
  r.metrics["op_latency_p50_ms"] = *std::min_element(p50.begin(), p50.end());
  r.metrics["op_latency_p90_ms"] = *std::min_element(p90.begin(), p90.end());
  r.info["zone_updates_per_s_window_median"] = median(zups);
  r.info["latency_samples"] = static_cast<double>(ops.size());
  r.info["latency_samples_per_window_min"] =
      *std::min_element(n.begin(), n.end());
}

[[nodiscard]] Result run_kh_srhd(const RunOptions& o);
[[nodiscard]] Result run_blast_srmhd(const RunOptions& o);
[[nodiscard]] Result run_halo_4rank(const RunOptions& o);
[[nodiscard]] Result run_serve_mix(const RunOptions& o);

/// Setups per run; setup_s is their median.
inline constexpr int kSetupReps = 51;

inline void report_setup(const std::vector<double>& setup_s, Result& r) {
  r.metrics["setup_s"] = median(setup_s);
  r.info["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  r.info["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
}

}  // namespace perfbench
