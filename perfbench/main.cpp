// rshc_bench: one workload of the rshc benchmark per invocation.
//
//   rshc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--workdir <dir>] [--slowdown <factor>]
//
// stdout: one provenance line ({"provenance": ...}), then the result as the
// last line ({"correct", "attempted", "failed", "metrics"}). A readable
// table goes to stderr. Exit code 1 when a correctness check failed, 2 on
// bad arguments or an unexpected error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricDef kEndToEnd[] = {
    {"zone_updates_per_s", "1/s"}, {"ops_per_s", "1/s"},
    {"op_latency_p50_ms", "ms"},   {"op_latency_p90_ms", "ms"},
    {"setup_s", "s"},              {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"recon.ns_per_zone", "ns/zone"},
    {"riemann.ns_per_face", "ns/face"},
    {"rhs.ns_per_zone", "ns/zone"},
    {"rhs.other_ns_per_zone", "ns/zone"},
    {"c2p.ns_per_zone", "ns/zone"},
    {"c2p.iters_per_zone", "iters/zone"},
    {"c2p.floored_per_mzone", "count/Mzone"},
    {"rk.ns_per_zone", "ns/zone"},
    {"cfl.ns_per_zone", "ns/zone"},
    {"ghost.ns_per_zone", "ns/zone"},
    {"step.ns_per_zone", "ns/zone"},
    {"step.unattributed_ns_per_zone", "ns/zone"},
    {"work.zones", "count"},
    {"work.faces", "count"},
    {"recon.computed_bytes_per_zone", "B/zone"},
    {"riemann.computed_bytes_per_face", "B/face"},
    {"c2p.computed_bytes_per_zone", "B/zone"},
    {"halo.pack_ns_per_byte", "ns/B"},
    {"halo.unpack_ns_per_byte", "ns/B"},
    {"halo.messages_per_step", "count/step"},
    {"halo.bytes_per_step", "B/step"},
    {"comm.sendrecv_us", "us"},
    {"comm.allreduce_us", "us"},
    {"halo.exposed_ms_per_step", "ms"},
    {"rank.imbalance", "ratio"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.preemptions_per_job", "count/job"},
    {"io.checkpoint_write_ms", "ms"},
    {"io.checkpoint_read_ms", "ms"},
    {"io.checkpoint_mb", "MB"},
    {"analysis.validate_ms", "ms"},
    {"riemann_cache.hit_ratio", "ratio"},
    {"trace.overhead_frac", "frac"},
};

/// Peak resident memory less the file-backed part (shared libraries and
/// the binary), which moves from run to run with the page cache; what is
/// left is the process's own anonymous memory at its peak. Fields of
/// /proc/self/status, in KiB.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  double hwm = 0.0, file = 0.0, shmem = 0.0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream f(line);
    std::string key;
    double kib = 0.0;
    f >> key >> kib;
    if (key == "VmHWM:") hwm = kib;
    if (key == "RssFile:") file = kib;
    if (key == "RssShmem:") shmem = kib;
  }
  return (hwm - file - shmem) / 1024.0;
}

/// Effective parallelism: the same busy loop on one thread, then on every
/// hardware thread at once; 1 on a host that time-slices one core, nproc on
/// an idle host.
struct CoreProbe {
  double cores;      ///< effective parallelism
  double single_s;   ///< one thread's busy loop: the host's current speed
};

[[nodiscard]] CoreProbe effective_cores(unsigned threads) {
  auto busy = [] {
    volatile double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  };
  std::vector<double> ones, ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = time_call(busy);
    const double all = time_call([&] {
      std::vector<std::jthread> pool;
      for (unsigned t = 0; t < threads; ++t) pool.emplace_back(busy);
    });
    ones.push_back(one);
    ratios.push_back(threads * one / all);
  }
  return {median(ratios), median(ones)};
}

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

[[nodiscard]] std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

[[nodiscard]] bool parse(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--workdir") {
      o.workdir = v;
    } else if (k == "--slowdown") {
      o.slowdown = std::strtod(v.c_str(), &end);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 &&
         o.slowdown >= 1.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: rshc_bench --workload <kh-srhd|blast-srmhd|"
                 "halo-4rank|serve-mix> --seed <n> --seconds <s> --trace "
                 "<0|1> [--workdir <dir>] [--slowdown <factor>]\n";
    return 2;
  }
  Result r;
  try {
    if (o.workload == "kh-srhd") {
      r = run_kh_srhd(o);
    } else if (o.workload == "blast-srmhd") {
      r = run_blast_srmhd(o);
    } else if (o.workload == "halo-4rank") {
      r = run_halo_4rank(o);
    } else if (o.workload == "serve-mix") {
      r = run_serve_mix(o);
    } else {
      std::cerr << "unknown workload: " << o.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << o.workload << " failed: " << e.what() << "\n";
    return 2;
  }
  if (!o.trace) r.metrics["peak_rss_mb"] = peak_rss_mb();
  // After the workload, so the probe's threads stay out of its peak memory.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const CoreProbe cores = effective_cores(threads);

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << json_string(o.workload)
       << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"hw_threads\": " << threads
       << ", \"effective_cores\": " << json_number(cores.cores)
       << ", \"busy_loop_ms\": " << json_number(cores.single_s * 1e3)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"build_flags\": " << json_string(PERFBENCH_BUILD_FLAGS)
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << "}, \"info\": {";
  const char* sep = "";
  for (const auto& [k, v] : r.info) {
    prov << sep << json_string(k) << ": " << json_number(v);
    sep = ", ";
  }
  prov << "}, \"failures\": [";
  sep = "";
  for (const auto& f : r.failures) {
    prov << sep << json_string(f);
    sep = ", ";
  }
  prov << "]}";

  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  sep = "";
  std::fprintf(stderr, "%-34s %16s  %s\n", o.workload.c_str(), "value",
               "unit");
  auto emit = [&](const MetricDef& m) {
    const auto it = r.metrics.find(m.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    res << sep << json_string(m.name) << ": {\"value\": " << json_number(v)
        << ", \"unit\": " << json_string(m.unit) << "}";
    sep = ", ";
    std::fprintf(stderr, "%-34s %16.6g  %s\n", m.name, v, m.unit);
  };
  if (o.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  res << "}}";
  for (const auto& f : r.failures) std::cerr << "check failed: " << f << "\n";

  std::cout << prov.str() << "\n" << res.str() << std::endl;
  return correct ? 0 : 1;
}
