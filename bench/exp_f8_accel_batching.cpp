// Experiment F8 — accelerator batch-size crossover (figure).
// The con2prim batch staged through the simulated accelerator at growing
// batch sizes, against the host-simd inline baseline, in two residency
// modes:
//
//   staged   — every rep pays the full upload/kernel/download round trip
//              (the naive offload). The bandwidth term never amortizes, so
//              throughput plateaus well below host-simd at every batch size.
//   resident — state lives on the device across reps (the FvSolver kDevice
//              pipeline's model): upload once outside the timed region, and
//              each rep moves only a halo-sized slab. Only the per-launch
//              overhead and the tiny halo transfer remain, so throughput
//              approaches host-simd once the batch amortizes them — the
//              crossover the persistent-residency pipeline exists to move
//              into real step-size range.
//
// With a same-speed "device core" neither mode can beat host-simd; the
// figure is about how close each gets and at what batch size.

#include <algorithm>
#include <cmath>
#include <random>

#include "exp_common.hpp"
#include "rshc/device/device.hpp"
#include "rshc/srhd/kernels.hpp"

namespace {

using namespace rshc;

/// Halo slab (in doubles) a device-resident batch of `n` zones moves per
/// step: the 5 prim variables on the 3-deep rims of both axes of a
/// sqrt(n) x sqrt(n) tile — the same steady-state geometry the FvSolver
/// kDevice pipeline exchanges each stage. Capped at n so degenerate tiny
/// batches stay well-formed.
std::size_t halo_zones(std::size_t n) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  return std::min(n, std::size_t{5} * 2 * 2 * 3 * side);
}

struct ConsBatch {
  std::vector<double> d, sx, sy, sz, tau;
  explicit ConsBatch(std::size_t n) {
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> ur(0.5, 2.0);
    std::uniform_real_distribution<double> uv(-0.6, 0.6);
    d.resize(n); sx.resize(n); sy.resize(n); sz.resize(n); tau.resize(n);
    const eos::IdealGas eos(5.0 / 3.0);
    for (std::size_t i = 0; i < n; ++i) {
      const srhd::Prim w{ur(rng), uv(rng), uv(rng), uv(rng), ur(rng)};
      const auto u = srhd::prim_to_cons(w, eos);
      d[i] = u.d; sx[i] = u.sx; sy[i] = u.sy; sz[i] = u.sz; tau[i] = u.tau;
    }
  }
};

}  // namespace

int main() {
  constexpr double kGamma = 5.0 / 3.0;
  const srhd::Con2PrimOptions opt;
  const std::vector<std::size_t> batches = {1000, 4000, 16000, 64000,
                                            256000};

  Table table({"batch", "host_simd_Mz/s", "staged_Mz/s", "staged_over_host",
               "resident_Mz/s", "resident_over_host", "transfer_share"});
  table.set_title("F8: accelerator staging crossover for con2prim batches");

  for (const std::size_t n : batches) {
    ConsBatch in(n);
    std::vector<double> rho(n), vx(n), vy(n), vz(n), p(n);

    // Host-simd inline baseline.
    auto host_run = [&] {
      srhd::kernels::simd::cons_to_prim_n(
          n, in.d.data(), in.sx.data(), in.sy.data(), in.sz.data(),
          in.tau.data(), rho.data(), vx.data(), vy.data(), vz.data(),
          p.data(), kGamma, opt);
    };
    host_run();
    WallTimer th;
    host_run();
    const double host_rate = static_cast<double>(n) / th.seconds() / 1e6;

    // Staged: upload 5 arrays, run kernel, download 5 arrays — every call.
    device::AccelModel model;  // defaults: 10us latency, 12 GB/s, 8us launch
    auto dev = device::make_device(model);
    std::array<device::Buffer, 10> bufs;
    for (auto& b : bufs) b = dev->alloc(n);
    WallTimer ta;
    dev->upload_async(in.d, bufs[0]);
    dev->upload_async(in.sx, bufs[1]);
    dev->upload_async(in.sy, bufs[2]);
    dev->upload_async(in.sz, bufs[3]);
    dev->upload_async(in.tau, bufs[4]);
    auto views = [&](int i) { return bufs[static_cast<std::size_t>(i)].device_view().data(); };
    const auto o = opt;
    auto kernel = [=] {
      srhd::kernels::simd::cons_to_prim_n(
          n, views(0), views(1), views(2), views(3), views(4), views(5),
          views(6), views(7), views(8), views(9), kGamma, o);
    };
    dev->launch(kernel, n);
    dev->download_async(bufs[5], rho);
    dev->download_async(bufs[6], vx);
    dev->download_async(bufs[7], vy);
    dev->download_async(bufs[8], vz);
    dev->download_async(bufs[9], p);
    dev->synchronize();
    const double accel_sec = ta.seconds();
    const double accel_rate = static_cast<double>(n) / accel_sec / 1e6;
    const double transfer_sec =
        10.0 * model.transfer_latency_sec +
        10.0 * static_cast<double>(n) * sizeof(double) /
            model.transfer_bandwidth_bytes_per_sec;

    // Resident: the cons state already lives on the device (uploaded above),
    // so a step pays only the launch overhead plus a halo-sized slab each
    // way — the FvSolver kDevice pipeline's steady-state cost.
    const std::size_t halo = halo_zones(n);
    std::vector<double> halo_host(halo, 1.0);
    device::Buffer halo_buf = dev->alloc(halo);
    WallTimer tr;
    dev->download_async(halo_buf, halo_host);  // rims out
    dev->upload_async(halo_host, halo_buf);    // ghosts back
    dev->launch(kernel, n);
    dev->synchronize();
    const double resident_rate = static_cast<double>(n) / tr.seconds() / 1e6;

    table.add_row({static_cast<long long>(n), host_rate, accel_rate,
                   accel_rate / host_rate, resident_rate,
                   resident_rate / host_rate, transfer_sec / accel_sec});
  }
  bench::emit(table, "f8_accel_batching");
  return 0;
}
