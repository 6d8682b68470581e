// Experiment F5 — heterogeneous kernel throughput (figure/table).
// Batched SoA kernels (prim2cons, con2prim, max-speed, flux, axpby) timed
// on the scalar-host baseline, the vectorized-host variant, and the
// simulated accelerator (kernel-only and with staging transfers).
//
// Expected shape: vectorized-host beats scalar on the streaming kernels
// (prim2cons, flux, axpby) only where they are not memory-bound; con2prim,
// a lane-masked Newton solve whose lanes iterate in step, gains the most
// from vectorization; the accelerator matches host-simd kernel time but
// pays transfer overheads that only amortize at large batches (see F8).

#include <algorithm>
#include <random>

#include "exp_common.hpp"
#include "rshc/device/device.hpp"
#include "rshc/srhd/kernels.hpp"

namespace {

using namespace rshc;

struct Soa {
  std::vector<double> rho, vx, vy, vz, p;
  std::vector<double> d, sx, sy, sz, tau;
  std::vector<double> out1, out2, out3, out4, out5;
  // con2prim's warm-start guess: the prims with p off by up to 1e-4
  // relative, standing in for the previous step's state.
  std::vector<double> guess_p;

  explicit Soa(std::size_t n) {
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> ur(0.5, 2.0);
    std::uniform_real_distribution<double> uv(-0.6, 0.6);
    std::uniform_real_distribution<double> up(-1e-4, 1e-4);
    auto sz_all = {&rho, &vx, &vy, &vz, &p, &d, &sx, &sy, &sz, &tau,
                   &out1, &out2, &out3, &out4, &out5, &guess_p};
    for (auto* v : sz_all) v->resize(n);
    const eos::IdealGas eos(5.0 / 3.0);
    for (std::size_t i = 0; i < n; ++i) {
      srhd::Prim w{ur(rng), uv(rng), uv(rng), uv(rng), ur(rng)};
      rho[i] = w.rho; vx[i] = w.vx; vy[i] = w.vy; vz[i] = w.vz; p[i] = w.p;
      const auto u = srhd::prim_to_cons(w, eos);
      d[i] = u.d; sx[i] = u.sx; sy[i] = u.sy; sz[i] = u.sz; tau[i] = u.tau;
      guess_p[i] = w.p * (1.0 + up(rng));
    }
  }

  /// con2prim overwrites its prim outputs, and the SRHD solve starts from
  /// the old pressure there: without this restore every call after the
  /// first restarts at the root and times one-iteration solves.
  void restore_guess() {
    std::copy(guess_p.begin(), guess_p.end(), out5.begin());
  }
};

constexpr double kGamma = 5.0 / 3.0;

/// Run `fn` enough times to get a stable rate; returns Mzones/s. `reset`
/// runs untimed before every call.
template <typename Fn, typename Reset>
double rate(std::size_t n, Fn&& fn, Reset&& reset, int reps = 8) {
  reset();
  fn();  // warm-up
  double sec = 0.0;
  for (int i = 0; i < reps; ++i) {
    reset();
    WallTimer t;
    fn();
    sec += t.seconds();
  }
  return static_cast<double>(n) * reps / sec / 1e6;
}

}  // namespace

int main() {
  constexpr std::size_t kN = 200000;
  Soa soa(kN);
  const srhd::Con2PrimOptions opt;

  Table table({"kernel", "scalar_Mz/s", "simd_Mz/s", "simd_speedup",
               "accel_kernel_Mz/s", "accel_with_staging_Mz/s"});
  table.set_title("F5: batched kernel throughput, 200k zones");

  namespace ks = srhd::kernels::scalar;
  namespace kv = srhd::kernels::simd;

  struct KernelRow {
    const char* name;
    std::function<void()> scalar_fn;
    std::function<void()> simd_fn;
    std::size_t staged_doubles;  // per zone, for the staging model
    std::function<void()> reset = [] {};  // untimed, before every call
  };

  Soa& b = soa;
  const std::vector<KernelRow> kernels = {
      {"prim2cons",
       [&] {
         ks::prim_to_cons_n(kN, b.rho.data(), b.vx.data(), b.vy.data(),
                            b.vz.data(), b.p.data(), b.out1.data(),
                            b.out2.data(), b.out3.data(), b.out4.data(),
                            b.out5.data(), kGamma);
       },
       [&] {
         kv::prim_to_cons_n(kN, b.rho.data(), b.vx.data(), b.vy.data(),
                            b.vz.data(), b.p.data(), b.out1.data(),
                            b.out2.data(), b.out3.data(), b.out4.data(),
                            b.out5.data(), kGamma);
       },
       10},
      {"con2prim",
       [&] {
         ks::cons_to_prim_n(kN, b.d.data(), b.sx.data(), b.sy.data(),
                            b.sz.data(), b.tau.data(), b.out1.data(),
                            b.out2.data(), b.out3.data(), b.out4.data(),
                            b.out5.data(), kGamma, opt);
       },
       [&] {
         kv::cons_to_prim_n(kN, b.d.data(), b.sx.data(), b.sy.data(),
                            b.sz.data(), b.tau.data(), b.out1.data(),
                            b.out2.data(), b.out3.data(), b.out4.data(),
                            b.out5.data(), kGamma, opt);
       },
       10,
       [&] { b.restore_guess(); }},
      {"max_speed",
       [&] {
         ks::max_speed_n(kN, b.rho.data(), b.vx.data(), b.vy.data(),
                         b.vz.data(), b.p.data(), b.out1.data(), kGamma, 3);
       },
       [&] {
         kv::max_speed_n(kN, b.rho.data(), b.vx.data(), b.vy.data(),
                         b.vz.data(), b.p.data(), b.out1.data(), kGamma, 3);
       },
       6},
      {"flux_x",
       [&] {
         ks::flux_n(kN, 0, b.rho.data(), b.vx.data(), b.vy.data(),
                    b.vz.data(), b.p.data(), b.d.data(), b.sx.data(),
                    b.sy.data(), b.sz.data(), b.tau.data(), b.out1.data(),
                    b.out2.data(), b.out3.data(), b.out4.data(),
                    b.out5.data());
       },
       [&] {
         kv::flux_n(kN, 0, b.rho.data(), b.vx.data(), b.vy.data(),
                    b.vz.data(), b.p.data(), b.d.data(), b.sx.data(),
                    b.sy.data(), b.sz.data(), b.tau.data(), b.out1.data(),
                    b.out2.data(), b.out3.data(), b.out4.data(),
                    b.out5.data());
       },
       15},
      {"axpby",
       [&] { ks::axpby_n(kN, 0.5, b.d.data(), 0.5, b.out1.data()); },
       [&] { kv::axpby_n(kN, 0.5, b.d.data(), 0.5, b.out1.data()); },
       2},
  };

  const device::AccelModel model;  // PCIe-3-ish defaults
  for (const auto& k : kernels) {
    const double r_scalar = rate(kN, k.scalar_fn, k.reset);
    const double r_simd = rate(kN, k.simd_fn, k.reset);
    // Accelerator: kernel time == simd time on its stream worker plus
    // launch overhead; staging adds the modeled link cost.
    auto accel = device::make_device(model);
    k.reset();
    WallTimer tk;
    accel->launch(k.simd_fn, kN);
    accel->synchronize();
    const double accel_kernel = static_cast<double>(kN) / tk.seconds() / 1e6;
    const double staging_sec =
        2.0 * model.transfer_latency_sec +
        static_cast<double>(k.staged_doubles * kN * sizeof(double)) /
            model.transfer_bandwidth_bytes_per_sec;
    const double accel_staged =
        static_cast<double>(kN) /
        (tk.seconds() + staging_sec) / 1e6;
    table.add_row({std::string(k.name), r_scalar, r_simd,
                   r_simd / r_scalar, accel_kernel, accel_staged});
  }
  bench::emit(table, "f5_kernel_throughput");
  return 0;
}
