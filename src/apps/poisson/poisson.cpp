#include "apps/poisson/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ppa::app {

namespace {

/// Grid spacing; the discretization lives on the unit square.
double spacing(const PoissonProblem& prob) {
  return 1.0 / static_cast<double>(std::max(prob.nx, prob.ny) - 1);
}

/// One Jacobi pass over a block's core (column-tiled) or over its rim
/// (update minus core), returning `running` folded with max |new - old|
/// over the points swept: the sweep carries the diffmax, so no second pass
/// reads both iterates. Max is exact, so the core-then-rim order gives the
/// row-order fold's value bitwise. Kept out of line: inlined into the
/// iteration loop, GCC 12 held a running max in a stack slot, and the whole
/// solve ran ~1.35x slower.
[[gnu::noinline]] double jacobi_sweep_max(mesh::FieldView2D<double> out,
                                          mesh::FieldView2D<const double> in,
                                          mesh::FieldView2D<const double> f,
                                          double h2, mesh::Region2 update,
                                          mesh::Region2 core, bool rim,
                                          double running) {
  const auto rows = [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
    running = mesh::kern::jacobi_row_absdiff_max(out.row(i), in.row(i - 1),
                                                 in.row(i), in.row(i + 1),
                                                 f.row(i), h2, j0, j1, running);
  };
  if (rim) {
    mesh::kern::sweep_rim_rows(update, core, rows);
  } else {
    mesh::kern::sweep_rows_tiled(
        core, mesh::kern::auto_tile_j(5 * sizeof(double), core.j1 - core.j0),
        rows);
  }
  return running;
}

}  // namespace

PoissonResult poisson_v1(const PoissonProblem& prob) {
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = spacing(prob);

  // uk: current iterate; ukp: next iterate; fv: RHS samples.
  Array2D<double> uk(nx, ny, 0.0), ukp(nx, ny, 0.0), fv(nx, ny, 0.0);

  // "Initialize boundary of u to g(x,y), interior to initial guess" (zero).
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const double x = static_cast<double>(i) * h;
      const double y = static_cast<double>(j) * h;
      fv(i, j) = prob.f(x, y);
      const bool boundary = (i == 0 || i == nx - 1 || j == 0 || j == ny - 1);
      uk(i, j) = boundary ? prob.g(x, y) : 0.0;
    }
  }
  ukp = uk;

  PoissonResult result;
  double diffmax = prob.tolerance + 1.0;
  while (diffmax > prob.tolerance && result.iterations < prob.max_iters) {
    // Grid operation (the forall of Fig 13): new values at interior points.
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) {
        ukp(i, j) = (uk(i - 1, j) + uk(i + 1, j) + uk(i, j - 1) + uk(i, j + 1) -
                     h * h * fv(i, j)) *
                    0.25;
      }
    }
    // Reduction operation: diffmax = max |ukp - uk| over the interior.
    diffmax = 0.0;
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) {
        diffmax = std::max(diffmax, std::abs(ukp(i, j) - uk(i, j)));
      }
    }
    // Copy new values to old values.
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      for (std::size_t j = 1; j + 1 < ny; ++j) uk(i, j) = ukp(i, j);
    }
    ++result.iterations;
  }
  result.u = std::move(uk);
  result.final_diffmax = diffmax;
  return result;
}

PoissonResult poisson_process(mpl::Process& p, const mesh::BlockLayout2D& layout,
                              const std::vector<int>& owner,
                              const PoissonProblem& prob) {
  const std::size_t nx = prob.nx;
  const std::size_t ny = prob.ny;
  const double h = spacing(prob);

  mesh::BlockSet<double> uk(layout, owner, p.rank());
  mesh::BlockSet<double> ukp(layout, owner, p.rank());
  mesh::BlockSet<double> fv(layout, owner, p.rank());

  fv.init_from_global([&](std::size_t gi, std::size_t gj) {
    return prob.f(static_cast<double>(gi) * h, static_cast<double>(gj) * h);
  });
  uk.init_from_global([&](std::size_t gi, std::size_t gj) {
    const bool boundary = (gi == 0 || gi == nx - 1 || gj == 0 || gj == ny - 1);
    return boundary
               ? prob.g(static_cast<double>(gi) * h, static_cast<double>(gj) * h)
               : 0.0;
  });
  for (std::size_t b = 0; b < uk.size(); ++b) {
    ukp.block(b).grid().copy_interior_from(uk.block(b).grid());
  }

  // Per-block update/core regions: each block clips the global interior to
  // its own window (xintersect/yintersect in Fig 14) — the points it
  // actually updates — and splits that into the ghost-independent core and
  // the rim.
  std::vector<mesh::Region2> update(uk.size()), core(uk.size());
  for (std::size_t b = 0; b < uk.size(); ++b) {
    const auto& blk = uk.block(b);
    const auto ilo = static_cast<std::ptrdiff_t>(blk.x_range().lo == 0 ? 1 : 0);
    const auto jlo = static_cast<std::ptrdiff_t>(blk.y_range().lo == 0 ? 1 : 0);
    const auto ihi = static_cast<std::ptrdiff_t>(blk.nx()) -
                     (blk.x_range().hi == nx ? 1 : 0);
    const auto jhi = static_cast<std::ptrdiff_t>(blk.ny()) -
                     (blk.y_range().hi == ny ? 1 : 0);
    update[b] = mesh::Region2{ilo, ihi, jlo, jhi};
    core[b] = mesh::core_region(blk.grid(), 1, update[b]);
  }

  // The replicated global variable controlling the loop (Fig 14's diffmax):
  // copy consistency holds because it is only assigned values that are
  // identical on every process (the initializer and the allreduce result).
  mesh::Global<double> diffmax(prob.tolerance + 1.0);

  // One plan for the whole block set: all off-rank halos travel in one
  // batched message per peer rank per iteration; on-rank block pairs are
  // local copies. The 5-point stencil reads no corner ghosts.
  mesh::BlockExchangePlan2D plan(uk);

  const double h2 = h * h;
  // Per-block sweep of the core or the rim, folding into the local diffmax.
  const auto sweep_block = [&](std::size_t b, bool rim, double running) {
    return jacobi_sweep_max(
        mesh::field_view(ukp.block(b).grid()),
        mesh::field_view(std::as_const(uk.block(b).grid())),
        mesh::field_view(std::as_const(fv.block(b).grid())), h2, update[b],
        core[b], rim, running);
  };

  PoissonResult result;
  while (diffmax.get() > prob.tolerance && result.iterations < prob.max_iters) {
    plan.begin_exchange_all(p, uk);
    double local_diffmax = 0.0;
    for (std::size_t b = 0; b < uk.size(); ++b) {
      local_diffmax = sweep_block(b, /*rim=*/false, local_diffmax);
    }
    plan.end_exchange_all(p, uk);
    for (std::size_t b = 0; b < uk.size(); ++b) {
      local_diffmax = sweep_block(b, /*rim=*/true, local_diffmax);
    }
    diffmax.store_replicated(p, p.allreduce(local_diffmax, mpl::MaxOp{}));

    // Fig 13's "copy new values to old", done as a swap: ukp already holds
    // the global-boundary values (copied at init, never written), and the
    // next round's exchange refreshes every ghost the stencil reads before
    // the rim sweep, so the old iterate's stale ghosts are never read.
    std::swap(uk, ukp);
    ++result.iterations;
  }

  result.u = mesh::gather_blocks(p, uk, 0);
  result.final_diffmax = diffmax.get();
  return result;
}

PoissonResult poisson_process(mpl::Process& p, const mpl::CartGrid2D& pgrid,
                              const PoissonProblem& prob) {
  return poisson_process(p, mesh::block_layout(pgrid, prob.nx, prob.ny),
                         mesh::block_owners(pgrid), prob);
}

PoissonResult poisson_spmd(const PoissonProblem& prob, int nprocs,
                           const mesh::BlockConfig& config) {
  const auto layout = mesh::block_layout(config, nprocs, prob.nx, prob.ny);
  const auto owner = mesh::block_owners(config, nprocs);
  PoissonResult result;
  mpl::spmd_run(nprocs, [&](mpl::Process& p) {
    auto local = poisson_process(p, layout, owner, prob);
    if (p.rank() == 0) result = std::move(local);
  });
  return result;
}

PoissonResult poisson_spmd(const PoissonProblem& prob, mpl::Scheduler& scheduler,
                           int nprocs, mpl::Priority priority,
                           const mpl::JobOptions& options) {
  if (nprocs <= 0) nprocs = scheduler.width();
  const auto pgrid = mpl::CartGrid2D::near_square(nprocs);
  PoissonResult result;
  scheduler.run(
      nprocs,
      [&](mpl::Process& p) {
        auto local = poisson_process(p, pgrid, prob);
        if (p.rank() == 0) result = std::move(local);
      },
      priority, options);
  return result;
}

}  // namespace ppa::app
