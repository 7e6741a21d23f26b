#include "apps/advect/sparse_advect.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace ppa::app {

namespace {

/// The initial tracer: a cosine^2 bump with *compact* support (exactly zero
/// at and beyond the radius — a Gaussian tail would touch every block and
/// defeat sparsity).
double blob(const SparseAdvectConfig& cfg, std::size_t gi, std::size_t gj) {
  const double x = (static_cast<double>(gi) + 0.5) / static_cast<double>(cfg.nx);
  const double y = (static_cast<double>(gj) + 0.5) / static_cast<double>(cfg.ny);
  const double dx = x - cfg.cx0;
  const double dy = y - cfg.cy0;
  const double r = std::sqrt(dx * dx + dy * dy) / cfg.radius;
  if (r >= 1.0) return 0.0;
  const double c = std::cos(0.5 * std::numbers::pi * r);
  return c * c;
}

/// Global sum of a block set's interiors.
double global_mass(mpl::Process& p, const mesh::BlockSet<double>& c) {
  double local = 0.0;
  for (const auto& b : c) {
    if (!b.allocated()) continue;
    local = mesh::local_reduce(b.grid(), local,
                               [](double acc, double v) { return acc + v; });
  }
  return p.allreduce(local, mpl::SumOp{});
}

/// Global bytes currently materialized across both ping-pong sets.
std::uint64_t global_storage(mpl::Process& p, const mesh::BlockSet<double>& a,
                             const mesh::BlockSet<double>& b) {
  const auto local =
      static_cast<std::uint64_t>(a.storage_bytes() + b.storage_bytes());
  return p.allreduce(local, mpl::SumOp{});
}

}  // namespace

mesh::BlockLayout2D make_advect_layout(const SparseAdvectConfig& cfg) {
  mesh::BlockLayout2D layout;
  layout.global_nx = cfg.nx;
  layout.global_ny = cfg.ny;
  layout.nbx = cfg.nbx;
  layout.nby = cfg.nby;
  layout.ghost = 1;
  layout.periodic = mesh::Periodicity{true, true};
  return layout;
}

SparseAdvectStats sparse_advect_process(mpl::Process& p,
                                        const mesh::BlockLayout2D& layout,
                                        const std::vector<int>& owner,
                                        const SparseAdvectConfig& cfg) {
  assert(cfg.cu >= 0.0 && cfg.cv >= 0.0 &&
         "sparse_advect: upwinding assumes non-negative Courant numbers");

  // Ping-pong block sets. Dense mode allocates everything up front; sparse
  // mode starts empty and materializes only blocks the blob touches.
  mesh::BlockSet<double> c(layout, owner, p.rank(), !cfg.sparse);
  mesh::BlockSet<double> cnew(layout, owner, p.rank(), !cfg.sparse);
  if (cfg.sparse) {
    for (auto& b : c) {
      bool nonzero = false;
      for (std::size_t i = b.x_range().lo; i < b.x_range().hi && !nonzero; ++i) {
        for (std::size_t j = b.y_range().lo; j < b.y_range().hi; ++j) {
          if (blob(cfg, i, j) != 0.0) {
            nonzero = true;
            break;
          }
        }
      }
      if (nonzero) b.allocate();
    }
  }
  c.init_from_global([&](std::size_t gi, std::size_t gj) {
    return blob(cfg, gi, gj);
  });

  // Sparse allocation piggybacks on the exchange. In bitwise mode (sweep
  // off) the allocation threshold is 0: any non-zero halo strip wakes its
  // destination block — exactly the round a dense run would first compute
  // non-zero data there. With the sweep on, waking matches retiring (same
  // threshold) so a just-retired block is not re-woken by the sub-threshold
  // tail it was retired for.
  const double alloc_threshold = std::max(cfg.dealloc_threshold, 0.0);
  mesh::BlockExchangePlan2D plan(
      c, mesh::BlockExchangeOptions{false, 0, cfg.sparse, alloc_threshold});

  SparseAdvectStats stats;
  stats.total_blocks = static_cast<std::size_t>(layout.nblocks());
  stats.initial_mass = global_mass(p, c);
  stats.dense_bytes =
      p.allreduce(static_cast<std::uint64_t>(c.dense_bytes() + cnew.dense_bytes()),
                  mpl::SumOp{});
  stats.peak_storage_bytes = global_storage(p, c, cnew);

  std::uint64_t retired_local = 0;
  for (int s = 0; s < cfg.steps; ++s) {
    plan.exchange_all(p, c);

    // Mirror allocation into the write set, then sweep every live block.
    // The upwind form  c - cu*(c - c_west) - cv*(c - c_south)  reads only
    // the west/south neighbors, but the full 5-point halo is exchanged so
    // the schedule is direction-agnostic.
    for (std::size_t b = 0; b < c.size(); ++b) {
      if (c.block(b).allocated() && !cnew.block(b).allocated()) {
        cnew.block(b).allocate();
      }
    }
    for (std::size_t b = 0; b < c.size(); ++b) {
      if (!c.block(b).allocated()) continue;
      const auto& g = c.block(b).grid();
      auto& n = cnew.block(b).grid();
      mesh::for_interior(g, [&](std::ptrdiff_t i, std::ptrdiff_t j) {
        n(i, j) = g(i, j) - cfg.cu * (g(i, j) - g(i - 1, j)) -
                  cfg.cv * (g(i, j) - g(i, j - 1));
      });
    }
    std::swap(c, cnew);

    if (cfg.dealloc_threshold >= 0.0 && cfg.sweep_every > 0 &&
        (s + 1) % cfg.sweep_every == 0) {
      retired_local += c.sweep_deallocate(
          [&](double v) { return std::abs(v) <= cfg.dealloc_threshold; },
          cfg.dealloc_patience);
      // Keep the write set's allocation a subset of the read set's.
      for (std::size_t b = 0; b < c.size(); ++b) {
        if (!c.block(b).allocated() && cnew.block(b).allocated()) {
          cnew.block(b).deallocate();
        }
      }
    }

    stats.peak_storage_bytes =
        std::max(stats.peak_storage_bytes, global_storage(p, c, cnew));
  }

  stats.mass = global_mass(p, c);
  stats.allocated_blocks = static_cast<std::size_t>(p.allreduce(
      static_cast<std::uint64_t>(c.allocated_count()), mpl::SumOp{}));
  stats.retired_blocks =
      static_cast<std::size_t>(p.allreduce(retired_local, mpl::SumOp{}));
  stats.field = mesh::gather_blocks(p, c, 0);
  return stats;
}

SparseAdvectStats sparse_advect_spmd(const SparseAdvectConfig& cfg, int nprocs) {
  const auto layout = make_advect_layout(cfg);
  const auto owner =
      cfg.owner.empty()
          ? mesh::distribute_blocks_contiguous(layout.nblocks(), nprocs)
          : cfg.owner;
  SparseAdvectStats stats;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    auto local = sparse_advect_process(p, layout, owner, cfg);
    if (p.rank() == 0) stats = std::move(local);
  });
  return stats;
}

}  // namespace ppa::app
