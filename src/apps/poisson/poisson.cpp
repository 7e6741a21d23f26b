#include "apps/poisson/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ppa::app {

namespace {

/// Grid spacing; the discretization lives on the unit square.
double spacing(const PoissonProblem& prob) {
  return 1.0 / static_cast<double>(std::max(prob.nx, prob.ny) - 1);
}

/// One Jacobi pass from `in` to `out` over `region` minus `skip`, in row
/// segments, returning `running` folded with max |new - old| over the
/// points swept: the sweep carries the diffmax, so no second pass reads
/// both iterates. An empty `skip` sweeps the whole region column-tiled. Max
/// is exact, so any split or order of the points gives the row-order
/// fold's value bitwise. Kept out of line: inlined into the iteration loop,
/// GCC 12 held a running max in a stack slot, and the whole solve ran
/// ~1.35x slower.
[[gnu::noinline]] double jacobi_sweep_max(mesh::FieldView2D<double> out,
                                          mesh::FieldView2D<const double> in,
                                          mesh::FieldView2D<const double> f,
                                          double h2, mesh::Region2 region,
                                          mesh::Region2 skip, double running) {
  const auto rows = [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
    running = mesh::kern::jacobi_row_absdiff_max(out.row(i), in.row(i - 1),
                                                 in.row(i), in.row(i + 1),
                                                 f.row(i), h2, j0, j1, running);
  };
  if (skip.empty()) {
    mesh::kern::sweep_rows_tiled(
        region,
        mesh::kern::auto_tile_j(5 * sizeof(double), region.j1 - region.j0),
        rows);
  } else {
    mesh::kern::sweep_rim_rows(region, skip, rows);
  }
  return running;
}

/// Both sweeps' local (then global) diffmax of one round, reduced
/// element-wise in one allreduce.
struct RoundDiffmax {
  double first = 0.0;   ///< sweep A: uk -> ukp
  double second = 0.0;  ///< sweep B: ukp -> uk
};

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

  // Each round sweeps twice on one exchange, so a block's halo is two
  // points deep and its neighbours' ring rows must lie in the interior.
  for (int bx = 0; bx < layout.nbx; ++bx) {
    if (layout.x_range(bx).size() < 2) {
      throw std::invalid_argument(
          "poisson_process: a block is narrower than 2 points along x");
    }
  }
  for (int by = 0; by < layout.nby; ++by) {
    if (layout.y_range(by).size() < 2) {
      throw std::invalid_argument(
          "poisson_process: a block is narrower than 2 points along y");
    }
  }
  mesh::BlockLayout2D deep = layout;
  deep.ghost = std::max<std::size_t>(layout.ghost, 2);

  mesh::BlockSet<double> uk(deep, owner, p.rank());
  mesh::BlockSet<double> ukp(deep, owner, p.rank());
  mesh::BlockSet<double> fv(deep, owner, p.rank());

  uk.init_from_global([&](std::size_t gi, std::size_t gj) {
    const bool boundary = (gi == 0 || gi == nx - 1 || gj == 0 || gj == ny - 1);
    return boundary
               ? prob.g(static_cast<double>(gi) * h, static_cast<double>(gj) * h)
               : 0.0;
  });
  for (std::size_t b = 0; b < uk.size(); ++b) {
    ukp.block(b).grid().copy_interior_from(uk.block(b).grid());
  }

  // Per-block regions. `update` clips the global interior to the block's
  // own window (xintersect/yintersect in Fig 14) — the points it owns and
  // updates; `core` is its ghost-independent part. `extended` grows
  // `update` by one point into the ghost zone on every side that borders
  // another block: that ring holds the neighbours' points sweep A
  // recomputes so that sweep B reads nothing but local values. A
  // global-boundary side does not grow.
  std::vector<mesh::Region2> update(uk.size()), core(uk.size()),
      extended(uk.size());
  for (std::size_t b = 0; b < uk.size(); ++b) {
    const auto& blk = uk.block(b);
    const bool xlo = blk.x_range().lo == 0, xhi = blk.x_range().hi == nx;
    const bool ylo = blk.y_range().lo == 0, yhi = blk.y_range().hi == ny;
    const auto bnx = static_cast<std::ptrdiff_t>(blk.nx());
    const auto bny = static_cast<std::ptrdiff_t>(blk.ny());
    update[b] = mesh::Region2{xlo ? 1 : 0, bnx - (xhi ? 1 : 0), ylo ? 1 : 0,
                              bny - (yhi ? 1 : 0)};
    core[b] = mesh::core_region(blk.grid(), 1, update[b]);
    extended[b] = mesh::Region2{xlo ? 1 : -1, bnx + (xhi ? -1 : 1), ylo ? 1 : -1,
                                bny + (yhi ? -1 : 1)};
  }

  // f on the block window grown by one point, clipped to the domain: the
  // ring sweep reads f at the neighbours' points. Evaluated here with the
  // same expression as every owner evaluates its own points, so it costs
  // no message.
  for (auto& blk : fv) {
    auto& g = blk.grid();
    for (std::ptrdiff_t i = -1; i <= static_cast<std::ptrdiff_t>(blk.nx()); ++i) {
      const auto gi = static_cast<std::ptrdiff_t>(blk.x_range().lo) + i;
      if (gi < 0 || gi >= static_cast<std::ptrdiff_t>(nx)) continue;
      for (std::ptrdiff_t j = -1; j <= static_cast<std::ptrdiff_t>(blk.ny());
           ++j) {
        const auto gj = static_cast<std::ptrdiff_t>(blk.y_range().lo) + j;
        if (gj < 0 || gj >= static_cast<std::ptrdiff_t>(ny)) continue;
        g(i, j) = prob.f(static_cast<double>(gi) * h, static_cast<double>(gj) * h);
      }
    }
  }

  // The replicated global variable controlling the loop (Fig 14's diffmax):
  // copy consistency holds because it is only assigned values that are
  // identical on every process (the initializer and the allreduce result).
  mesh::Global<double> diffmax(prob.tolerance + 1.0);

  // One plan for the whole block set: all off-rank halos travel in one
  // batched message per peer rank per round; on-rank block pairs are local
  // copies. Sweep A's ring reads diagonal ghosts, so corners travel too.
  mesh::BlockExchangePlan2D plan(uk, {.corners = true});

  const double h2 = h * h;
  // Per-block Jacobi pass from `from` to `to` over `region` minus `skip`,
  // folding into `running`.
  const auto sweep = [&](mesh::BlockSet<double>& to,
                         const mesh::BlockSet<double>& from, std::size_t b,
                         mesh::Region2 region, mesh::Region2 skip,
                         double running) {
    return jacobi_sweep_max(mesh::field_view(to.block(b).grid()),
                            mesh::field_view(from.block(b).grid()),
                            mesh::field_view(std::as_const(fv.block(b).grid())),
                            h2, region, skip, running);
  };

  // Each round: one 2-deep exchange, sweep A (uk -> ukp) over the update
  // region plus the ring, sweep B (ukp -> uk) over the update region, and
  // one allreduce of both sweeps' diffmax. The ring equals the neighbours'
  // own values bitwise (identical inputs and arithmetic), so folding it
  // into the local max leaves the global max unchanged. When A already
  // meets the tolerance, its iterate is the answer and B is discarded; when
  // one sweep remains before max_iters, A runs alone over the update region.
  PoissonResult result;
  while (diffmax.get() > prob.tolerance && result.iterations < prob.max_iters) {
    const bool pair = prob.max_iters - result.iterations >= 2;
    RoundDiffmax local;
    plan.begin_exchange_all(p, uk);
    for (std::size_t b = 0; b < uk.size(); ++b) {
      local.first = sweep(ukp, uk, b, core[b], {}, local.first);
    }
    plan.end_exchange_all(p, uk);
    for (std::size_t b = 0; b < uk.size(); ++b) {
      local.first =
          sweep(ukp, uk, b, pair ? extended[b] : update[b], core[b], local.first);
    }
    if (pair) {
      for (std::size_t b = 0; b < uk.size(); ++b) {
        local.second = sweep(uk, ukp, b, update[b], {}, local.second);
      }
    }
    const RoundDiffmax global = p.allreduce(
        local, [](const RoundDiffmax& a, const RoundDiffmax& b) {
          return RoundDiffmax{mpl::MaxOp{}(a.first, b.first),
                              mpl::MaxOp{}(a.second, b.second)};
        });

    // Fig 13's "copy new values to old", done as swaps: both sets hold the
    // global-boundary values (copied at init, never written), and each
    // round's exchange refreshes every ghost sweep A reads, so stale ghosts
    // are never read.
    if (pair && global.first > prob.tolerance) {
      diffmax.store_replicated(p, global.second);
      result.iterations += 2;
    } else {
      diffmax.store_replicated(p, global.first);
      std::swap(uk, ukp);
      result.iterations += 1;
    }
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
