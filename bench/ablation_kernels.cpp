// bench/ablation_kernels.cpp
//
// Ablation study for the layout- and SIMD-aware kernel layer
// (meshspectral/field.hpp, meshspectral/kernels.hpp):
//
//   1. Element-size sweep (fsgrid methodology): Grid2D<std::array<double,E>>
//      for E in {1..128} doubles/cell at two grid sizes, reporting seconds
//      per halo update (persistent plan, periodic self-exchange, so the
//      padded-row pack/unpack path is what's timed) and seconds per
//      component-wise stencil sweep.
//   2. Tiled-vs-naive Jacobi A/B on a wide-row grid whose 5-stream working
//      set overflows L2, so j-tiling's cache reuse is visible.
//   3. SoA-vs-AoS A/B: the same single-component stencil over an
//      8-double/cell AoS grid versus the SoA field's unit-stride plane.
//   4. Per-sweep times of the apps' kernel sweeps on the fig15/fig16/fig17
//      workload shapes (poisson 1025^2 x 40 iters, euler 384x192 x 20
//      steps, fdtd 64^3 x 8 steps).
//
// The summary row ("kernels/summary") carries tiled_vs_naive_ratio;
// ci/build_and_test.sh asserts it stays > 1.0 in the committed
// BENCH_kernels.json. Bitwise equality of the app sweeps with their
// per-point oracles is pinned separately by tests/test_kernels.cpp — this
// file only measures.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/poisson/poisson.hpp"
#include "bench/microbench.hpp"
#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"

namespace {

using namespace ppa;

// ------------------------------------------------- 1. element-size sweep --

/// One (E, n) configuration: time a periodic self-halo update and a
/// component-wise 5-point sweep on an n x n grid of E-double cells.
template <std::size_t E>
void bench_element_size(microbench::Reporter& rep, std::size_t n, int reps,
                        int iters) {
  using Cell = std::array<double, E>;
  const mpl::CartGrid2D pgrid{1, 1};
  mpl::spmd_run(1, [&](mpl::Process& p) {
    mesh::Grid2D<Cell> g(n, n, pgrid, 0, 1);
    mesh::Grid2D<Cell> out(n, n, pgrid, 0, 1);
    g.init_from_global([](std::size_t gi, std::size_t gj) {
      Cell c{};
      for (std::size_t k = 0; k < E; ++k)
        c[k] = static_cast<double>(gi + 2 * gj + k);
      return c;
    });
    mesh::ExchangePlan2D plan(
        pgrid, 0, g,
        mesh::ExchangeOptions2{mesh::Periodicity{true, true}, true, 0});
    plan.begin_exchange(p, g);  // warm-up
    plan.end_exchange(p, g);

    const double sec_halo = microbench::time_best_of(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        plan.begin_exchange(p, g);
        plan.end_exchange(p, g);
      }
    }) / iters;

    const auto ni = static_cast<std::ptrdiff_t>(n);
    const auto sweep = [&] {
      for (std::ptrdiff_t i = 0; i < ni; ++i) {
        const Cell* PPA_RESTRICT um = g.row(i - 1);
        const Cell* uc = g.row(i);
        const Cell* PPA_RESTRICT up = g.row(i + 1);
        Cell* PPA_RESTRICT o = out.row(i);
        for (std::ptrdiff_t j = 0; j < ni; ++j) {
          for (std::size_t k = 0; k < E; ++k) {
            o[j][k] = 0.25 * (um[j][k] + up[j][k] + uc[j - 1][k] + uc[j + 1][k]);
          }
        }
      }
    };
    sweep();  // warm-up
    const double sec_sweep = microbench::time_best_of(reps, [&] {
      for (int it = 0; it < iters; ++it) sweep();
    }) / iters;

    microbench::Result r;
    r.name = "kernels/esize/E" + std::to_string(E) + "/n" + std::to_string(n);
    r.set("elem_doubles", static_cast<double>(E))
        .set("n", static_cast<double>(n))
        .set("seconds_per_halo", sec_halo)
        .set("seconds_per_sweep", sec_sweep);
    rep.add(std::move(r));
  });
}

// ------------------------------------------- 2. tiled-vs-naive Jacobi A/B --

double bench_tiled_vs_naive(microbench::Reporter& rep, bool smoke) {
  // Wide rows: with ny = 96K doubles, the five per-row streams (out, f, and
  // the three input rows) are ~3.8 MB — past this box's 2 MB L2 — so the
  // untiled sweep re-fetches each input row from DRAM for every one of the
  // three output rows that reads it. The j-tiled sweep keeps a ~32 KB
  // column block resident across those three uses.
  const std::size_t nx = smoke ? 8 : 32;
  const std::size_t ny = smoke ? 16384 : 98304;
  const int reps = smoke ? 2 : 5;
  mesh::Grid2D<double> in(nx, ny, 1), f(nx, ny, 1), out(nx, ny, 1);
  in.init_from_global([](std::size_t gi, std::size_t gj) {
    return static_cast<double>(gi % 17) + 0.001 * static_cast<double>(gj % 251);
  });
  f.init_from_global([](std::size_t gi, std::size_t gj) {
    return static_cast<double>((gi + gj) % 13);
  });
  const mesh::Region2 r{1, static_cast<std::ptrdiff_t>(nx) - 1, 1,
                        static_cast<std::ptrdiff_t>(ny) - 1};
  const auto iv = mesh::field_view(std::as_const(in));
  const auto fv = mesh::field_view(std::as_const(f));
  auto ov = mesh::field_view(out);
  const double h2 = 1e-6;

  mesh::kern::jacobi_sweep(ov, iv, fv, h2, r);  // warm-up
  const double sec_naive = microbench::time_best_of(
      reps, [&] { mesh::kern::jacobi_sweep(ov, iv, fv, h2, r); });
  const double sec_tiled = microbench::time_best_of(
      reps, [&] { mesh::kern::jacobi_sweep_tiled(ov, iv, fv, h2, r); });

  const double ratio = sec_naive / sec_tiled;
  microbench::Result res;
  res.name = "kernels/tiled_vs_naive";
  res.set("nx", static_cast<double>(nx))
      .set("ny", static_cast<double>(ny))
      .set("seconds_naive", sec_naive)
      .set("seconds_tiled", sec_tiled)
      .set("ratio", ratio);
  rep.add(std::move(res));
  return ratio;
}

// --------------------------------------------------- 3. SoA-vs-AoS A/B ----

double bench_soa_vs_aos(microbench::Reporter& rep, bool smoke) {
  // Single-component stencil over an 8-double cell: the AoS layout strides
  // 64 bytes between consecutive j (one component per cache line); the SoA
  // plane is unit-stride.
  constexpr std::size_t kNC = 8;
  const std::size_t n = smoke ? 128 : 512;
  const int reps = smoke ? 2 : 5;
  const int iters = smoke ? 4 : 16;
  mesh::Grid2D<std::array<double, kNC>> aos(n, n, 1);
  mesh::Grid2D<std::array<double, kNC>> aos_out(n, n, 1);
  aos.init_from_global([](std::size_t gi, std::size_t gj) {
    std::array<double, kNC> c{};
    for (std::size_t k = 0; k < kNC; ++k)
      c[k] = static_cast<double>(gi * 3 + gj + k);
    return c;
  });
  mesh::SoAField2D<double> soa(n, n, 1, kNC), soa_out(n, n, 1, kNC);
  soa.from_aos(aos);
  soa_out.from_aos(aos_out);

  const auto ni = static_cast<std::ptrdiff_t>(n);
  const auto aos_sweep = [&] {
    for (std::ptrdiff_t i = 0; i < ni; ++i) {
      const auto* PPA_RESTRICT um = aos.row(i - 1);
      const auto* uc = aos.row(i);
      const auto* PPA_RESTRICT up = aos.row(i + 1);
      auto* PPA_RESTRICT o = aos_out.row(i);
      for (std::ptrdiff_t j = 0; j < ni; ++j) {
        o[j][0] = 0.25 * (um[j][0] + up[j][0] + uc[j - 1][0] + uc[j + 1][0]);
      }
    }
  };
  auto c_in = soa.component(0);
  auto c_out = soa_out.component(0);
  const auto soa_sweep = [&] {
    for (std::ptrdiff_t i = 0; i < ni; ++i) {
      const double* PPA_RESTRICT um = c_in.row(i - 1);
      const double* uc = c_in.row(i);
      const double* PPA_RESTRICT up = c_in.row(i + 1);
      double* PPA_RESTRICT o = c_out.row(i);
      for (std::ptrdiff_t j = 0; j < ni; ++j) {
        o[j] = 0.25 * (um[j] + up[j] + uc[j - 1] + uc[j + 1]);
      }
    }
  };
  aos_sweep();
  soa_sweep();
  const double sec_aos = microbench::time_best_of(reps, [&] {
    for (int it = 0; it < iters; ++it) aos_sweep();
  }) / iters;
  const double sec_soa = microbench::time_best_of(reps, [&] {
    for (int it = 0; it < iters; ++it) soa_sweep();
  }) / iters;

  const double ratio = sec_aos / sec_soa;
  microbench::Result res;
  res.name = "kernels/soa_vs_aos";
  res.set("n", static_cast<double>(n))
      .set("ncomp", static_cast<double>(kNC))
      .set("seconds_aos", sec_aos)
      .set("seconds_soa", sec_soa)
      .set("ratio", ratio);
  rep.add(std::move(res));
  return ratio;
}

// ------------------------------------ 4. app sweeps on fig workload shapes --

/// Time `run()` (one app run of `sweeps` sweeps); report s/sweep.
void bench_app_shape(microbench::Reporter& rep, const std::string& name,
                     int sweeps, int reps, const std::function<void()>& run) {
  run();  // warm-up (engine threads, allocations)
  const double sec_kernel = microbench::time_best_of(reps, run) / sweeps;
  microbench::Result res;
  res.name = name;
  res.set("seconds_per_sweep_kernel", sec_kernel);
  rep.add(std::move(res));
}

}  // namespace

int main() {
  using namespace ppa;
  const bool smoke = microbench::smoke_mode();
  const int reps = smoke ? 2 : 5;
  microbench::Reporter reporter("kernels");

  // 1. Element-size sweep, fsgrid style: E doubles/cell x grid size.
  {
    const std::size_t n_small = smoke ? 24 : 64;
    const std::size_t n_large = smoke ? 48 : 192;
    const int iters = smoke ? 2 : 8;
    for (const std::size_t n : {n_small, n_large}) {
      bench_element_size<1>(reporter, n, reps, iters);
      bench_element_size<2>(reporter, n, reps, iters);
      bench_element_size<4>(reporter, n, reps, iters);
      bench_element_size<8>(reporter, n, reps, iters);
      bench_element_size<16>(reporter, n, reps, iters);
      bench_element_size<32>(reporter, n, reps, iters);
      bench_element_size<64>(reporter, n, reps, iters);
      bench_element_size<128>(reporter, n, reps, iters);
    }
  }

  // 2. + 3. layout A/Bs.
  const double tiled_ratio = bench_tiled_vs_naive(reporter, smoke);
  const double soa_ratio = bench_soa_vs_aos(reporter, smoke);

  // 4. App sweeps on the fig15/fig16/fig17 shapes.
  {
    app::PoissonProblem prob;
    prob.nx = prob.ny = smoke ? 129 : 1025;
    prob.tolerance = 0.0;
    prob.max_iters = smoke ? 4 : 40;
    prob.g = [](double x, double y) { return x * x - y * y; };
    bench_app_shape(reporter, "kernels/fig15_poisson",
                    static_cast<int>(prob.max_iters), reps, [&] {
                      const auto r = app::poisson_spmd(prob, 1);
                      if (r.iterations != prob.max_iters) std::abort();
                    });
  }
  {
    app::CfdConfig cfg;
    cfg.nx = smoke ? 96 : 384;
    cfg.ny = smoke ? 48 : 192;
    const int steps = smoke ? 4 : 20;
    bench_app_shape(reporter, "kernels/fig16_cfd", steps, reps,
                    [&] { (void)app::run_shock_interface(cfg, steps, 1); });
  }
  {
    app::EmConfig cfg;
    cfg.n = smoke ? 24 : 64;
    cfg.src_i = cfg.n / 4;
    cfg.src_j = cfg.src_k = cfg.n / 2;
    const int steps = smoke ? 2 : 8;
    bench_app_shape(reporter, "kernels/fig17_em", steps, reps,
                    [&] { (void)app::run_em_scattering(cfg, steps, 1); });
  }

  microbench::Result summary;
  summary.name = "kernels/summary";
  summary.set("tiled_vs_naive_ratio", tiled_ratio)
      .set("soa_vs_aos_ratio", soa_ratio)
      .set("smoke", smoke ? 1.0 : 0.0);
  reporter.add(std::move(summary));

  if (!reporter.write_json("BENCH_kernels.json")) return 1;
  return 0;
}
