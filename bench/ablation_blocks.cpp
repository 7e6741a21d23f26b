// Ablation bench for the multi-block mesh substrate (BlockSet +
// BlockExchangePlan2D):
//
//   (a) blocks-per-rank sweep — a fixed global Jacobi problem decomposed
//       into 1, 4, and 16 blocks per rank: per-step time plus the boundary
//       traffic of one batched round (more blocks = more halo perimeter,
//       but the per-peer message count stays put);
//   (b) sparse vs dense allocation — the drifting-blob advection workload
//       with every block materialized up front vs blocks woken by the
//       exchange and retired by the deallocation sweep: peak storage and
//       time, with the >= 2x memory-reduction verdict.
//
// Results are written to BENCH_blocks.json for cross-PR comparison.
// PPA_BENCH_SMOKE=1 selects a reduced CI configuration.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "apps/advect/sparse_advect.hpp"
#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "meshspectral/meshspectral.hpp"

namespace {

using namespace ppa;

mesh::BlockLayout2D jacobi_layout(std::size_t n, int nbx, int nby) {
  mesh::BlockLayout2D layout;
  layout.global_nx = layout.global_ny = n;
  layout.nbx = nbx;
  layout.nby = nby;
  layout.ghost = 1;
  layout.periodic = mesh::Periodicity{false, false};
  return layout;
}

/// One 5-point Jacobi run over a multi-block domain; every decomposition
/// performs identical arithmetic. Returns seconds per step.
double run_block_sweep(int nprocs, std::size_t n, int nbx, int nby,
                       int steps) {
  const auto layout = jacobi_layout(n, nbx, nby);
  const auto owner = mesh::distribute_blocks_contiguous(layout.nblocks(), nprocs);
  const double total = microbench::time_best_of(1, [&] {
    mpl::spmd_run(nprocs, [&](mpl::Process& p) {
      mesh::BlockSet<double> u(layout, owner, p.rank());
      mesh::BlockSet<double> v(layout, owner, p.rank());
      u.init_from_global([](std::size_t i, std::size_t j) {
        return std::sin(static_cast<double>(i * 7 + j * 3));
      });
      mesh::BlockExchangePlan2D plan(u);
      for (int s = 0; s < steps; ++s) {
        plan.begin_exchange_all(p, u);
        plan.end_exchange_all(p, u);
        for (std::size_t b = 0; b < u.size(); ++b) {
          const auto& g = u.block(b).grid();
          auto& w = v.block(b).grid();
          mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
            w(i, j) = 0.25 * (g(i - 1, j) + g(i + 1, j) + g(i, j - 1) +
                              g(i, j + 1));
          });
        }
        std::swap(u, v);
      }
    });
  });
  return total / static_cast<double>(steps);
}

/// Boundary traffic of `steps` exchange rounds for a layout.
mpl::TraceSnapshot block_trace(int nprocs, std::size_t n, int nbx, int nby,
                               int steps) {
  const auto layout = jacobi_layout(n, nbx, nby);
  const auto owner = mesh::distribute_blocks_contiguous(layout.nblocks(), nprocs);
  mpl::TraceSnapshot trace;
  mpl::spmd_collect<int>(
      nprocs,
      [&](mpl::Process& p) {
        mesh::BlockSet<double> u(layout, owner, p.rank());
        u.init_from_global([](std::size_t, std::size_t) { return 1.0; });
        mesh::BlockExchangePlan2D plan(u);
        for (int s = 0; s < steps; ++s) plan.exchange_all(p, u);
        return 0;
      },
      &trace);
  return trace;
}

}  // namespace

int main() {
  using namespace ppa;
  bench::print_header("Ablation: multi-block mesh domains",
                      "blocks per rank, batched boundary round, sparse "
                      "allocation");

  const bool smoke = microbench::smoke_mode();
  microbench::Reporter reporter("mesh_blocks");
  bool ok = true;

  // --- (a) blocks-per-rank sweep ---------------------------------------------
  constexpr int kP = 4;
  const std::size_t n = smoke ? 96 : 192;
  const int steps = smoke ? 40 : 200;
  const int reps = smoke ? 3 : 5;
  std::printf("\n(a) 5-point Jacobi %zux%zu, P=%d: blocks per rank\n", n, n, kP);
  std::printf("  %8s %10s %14s %16s %14s\n", "blocks", "blk/rank", "msgs/round",
              "payload/round", "time (s/step)");
  double t_one_per_rank = 0.0;
  for (const auto& [nbx, nby] : std::vector<std::pair<int, int>>{
           {2, 2}, {4, 4}, {8, 8}}) {
    const int nblocks = nbx * nby;
    const auto trace = block_trace(kP, n, nbx, nby, steps);
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      best = std::min(best, run_block_sweep(kP, n, nbx, nby, steps));
    }
    if (nblocks == kP) t_one_per_rank = best;
    std::printf("  %5dx%-2d %10d %14.1f %16.1f %14.6f\n", nbx, nby,
                nblocks / kP,
                static_cast<double>(trace.messages) / steps,
                static_cast<double>(trace.bytes) / steps, best);
    microbench::Result r{"blocks/jacobi_sweep", {}};
    r.set("p", static_cast<double>(kP))
        .set("n", static_cast<double>(n))
        .set("blocks_per_rank", static_cast<double>(nblocks) / kP)
        .set("messages_per_round",
             static_cast<double>(trace.messages) / steps)
        .set("bytes_per_round", static_cast<double>(trace.bytes) / steps)
        .set("seconds_per_op", best);
    reporter.add(std::move(r));
  }
  std::printf("  (oversubscription adds interior-boundary copies, not "
              "messages)\n");

  // --- (b) sparse vs dense allocation ----------------------------------------
  app::SparseAdvectConfig cfg;
  cfg.nx = cfg.ny = smoke ? 128 : 256;
  cfg.nbx = cfg.nby = 8;
  cfg.steps = smoke ? 80 : 240;
  std::printf("\n(b) drifting-blob advection %zux%zu, 8x8 blocks, P=%d: "
              "dense vs sparse allocation\n", cfg.nx, cfg.ny, kP);
  app::SparseAdvectConfig dense_cfg = cfg;
  dense_cfg.sparse = false;
  app::SparseAdvectConfig tracked_cfg = cfg;
  tracked_cfg.dealloc_threshold = 1e-6;
  tracked_cfg.dealloc_patience = 1;
  tracked_cfg.sweep_every = 4;

  double t_dense = 1e300, t_tracked = 1e300;
  app::SparseAdvectStats dense, tracked;
  for (int r = 0; r < reps; ++r) {
    double t = microbench::time_best_of(
        1, [&] { dense = app::sparse_advect_spmd(dense_cfg, kP); });
    t_dense = std::min(t_dense, t);
    t = microbench::time_best_of(
        1, [&] { tracked = app::sparse_advect_spmd(tracked_cfg, kP); });
    t_tracked = std::min(t_tracked, t);
  }
  const double mem_ratio = static_cast<double>(dense.peak_storage_bytes) /
                           static_cast<double>(tracked.peak_storage_bytes);
  std::printf("  %10s %16s %14s\n", "mode", "peak bytes", "time (s/run)");
  std::printf("  %10s %16llu %14.6f\n", "dense",
              static_cast<unsigned long long>(dense.peak_storage_bytes),
              t_dense);
  std::printf("  %10s %16llu %14.6f\n", "sparse",
              static_cast<unsigned long long>(tracked.peak_storage_bytes),
              t_tracked);
  std::printf("  memory reduction: %.2fx (%zu blocks retired by the sweep)\n",
              mem_ratio, tracked.retired_blocks);
  microbench::Result rd{"blocks/advect_dense", {}};
  rd.set("p", static_cast<double>(kP))
      .set("n", static_cast<double>(cfg.nx))
      .set("peak_storage_bytes", static_cast<double>(dense.peak_storage_bytes))
      .set("seconds_per_op", t_dense);
  reporter.add(std::move(rd));
  microbench::Result rs{"blocks/advect_sparse", {}};
  rs.set("p", static_cast<double>(kP))
      .set("n", static_cast<double>(cfg.nx))
      .set("peak_storage_bytes",
           static_cast<double>(tracked.peak_storage_bytes))
      .set("seconds_per_op", t_tracked)
      .set("memory_reduction_vs_dense", mem_ratio);
  reporter.add(std::move(rs));

  reporter.write_json("BENCH_blocks.json");

  std::printf("\nShape verdicts:\n");
  ok &= bench::verdict("sparse allocation cuts peak storage by >= 2x",
                       mem_ratio >= 2.0);
  (void)t_one_per_rank;  // timings are recorded, not gated: host-dependent.
  return ok ? 0 : 1;
}
