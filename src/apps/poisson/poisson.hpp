// ppa/apps/poisson/poisson.hpp
//
// Jacobi Poisson solver on the mesh-spectral archetype (paper section 6):
// solve  d2u/dx2 + d2u/dy2 = f(x,y)  on the unit square with Dirichlet
// boundary condition u = g(x,y), by discretizing and applying Jacobi
// iteration to all interior points until convergence:
//
//     ukp[i][j] = ( uk[i-1][j] + uk[i+1][j] + uk[i][j-1] + uk[i][j+1]
//                   - h*h*f[i][j] ) / 4
//
// Version 1 (paper Fig 13): whole-grid forall + reduction-controlled while
// loop, sequentially executable.
//
// Version 2 (paper Fig 14): SPMD with a generic block distribution over an
// NPX x NPY process grid. The grid is a block set (one block per process by
// default, any block→rank map on request) with a ghost zone two points
// deep, so one boundary exchange serves two Jacobi sweeps. Every round is
// one split-phase exchange (a persistent BlockExchangePlan2D, corners
// included), sweep A over the owned points plus a one-point ring of the
// neighbours' points, sweep B over the owned points alone, and one
// allreduce(max) of both sweeps' diffmax that re-establishes copy
// consistency of the replicated global `diffmax` before it controls the
// loop. Sweep A's ghost-independent core is relaxed while the halo messages
// are in flight, the rest after end_exchange_all. If sweep A already meets
// the tolerance, its iterate is the answer and the iteration count grows by
// one; otherwise by two.
//
// Determinism note: each interior point's update uses identical arithmetic
// in both versions (the ring recomputes a neighbour's points from the same
// inputs, so it equals them bitwise) and the convergence test combines
// with max (exact under any association), so version 1 and version 2
// agree bitwise and take the same number of iterations.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/compose.hpp"
#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

struct PoissonProblem {
  std::size_t nx = 64;  ///< interior+boundary points per side (>= 3)
  std::size_t ny = 64;
  double tolerance = 1e-4;     ///< on max |u_{k+1} - u_k|
  std::size_t max_iters = 100000;
  /// Right-hand side f(x, y) and boundary condition g(x, y), both over the
  /// unit square (x = i/(nx-1), y = j/(ny-1)).
  std::function<double(double, double)> f = [](double, double) { return 0.0; };
  std::function<double(double, double)> g = [](double, double) { return 0.0; };
};

struct PoissonResult {
  Array2D<double> u;       ///< converged field (on the calling process)
  std::size_t iterations = 0;
  double final_diffmax = 0.0;
};

/// Version 1: sequential whole-grid Jacobi iteration (paper Fig 13).
[[nodiscard]] PoissonResult poisson_v1(const PoissonProblem& prob);

/// Version 2, per-process body (paper Fig 14) on a block-decomposed domain:
/// each rank owns the blocks `owner` assigns it (N >= 1, oversubscription
/// welcome) and every round runs ONE batched 2-deep boundary exchange over
/// its whole block set, two Jacobi sweeps and one allreduce. The blocks
/// get a ghost width of max(layout.ghost, 2). Identical per-point
/// arithmetic and a max-combined convergence test keep any decomposition
/// bitwise-equal to poisson_v1. Returns the shared iteration count; the
/// result field on rank 0 is the gathered global grid, other ranks return
/// an empty grid. Throws std::invalid_argument when a block of `layout` is
/// narrower than 2 points along either axis.
[[nodiscard]] PoissonResult poisson_process(mpl::Process& p,
                                            const mesh::BlockLayout2D& layout,
                                            const std::vector<int>& owner,
                                            const PoissonProblem& prob);

/// The same body with one block per rank of `pgrid` (block (bx, by) on
/// pgrid.rank_of(bx, by)): the paper's one-section-per-process layout.
[[nodiscard]] PoissonResult poisson_process(mpl::Process& p,
                                            const mpl::CartGrid2D& pgrid,
                                            const PoissonProblem& prob);

/// Version 2, whole-problem driver on `nprocs` SPMD processes; `config`
/// picks the block decomposition (default: one block per rank on the
/// near_square process grid).
[[nodiscard]] PoissonResult poisson_spmd(const PoissonProblem& prob, int nprocs,
                                         const mesh::BlockConfig& config = {});

/// Version 2 through a space-sharing Scheduler (mpl/scheduler.hpp): one
/// warm SPMD job per call, so a stream of solves reuses the engine's rank
/// threads and mailbox lanes instead of respawning per problem. A narrow
/// solve runs concurrently with other narrow jobs on a wide engine,
/// queueing (priority-ordered, bounded) when ranks are busy. `nprocs`
/// defaults to the scheduler's full width. `options` attaches a per-job
/// deadline / cancel token / watchdog (job.hpp); a deadline counts from
/// submission, queueing time included.
[[nodiscard]] PoissonResult poisson_spmd(const PoissonProblem& prob,
                                         mpl::Scheduler& scheduler,
                                         int nprocs = 0,
                                         mpl::Priority priority = mpl::Priority::kNormal,
                                         const mpl::JobOptions& options = {});

/// Composable component (core/compose.hpp): a hosted stage solving a stream
/// of Poisson problems, each as one np-wide SPMD job on a near-square
/// process grid (the poisson_spmd layout). Rank 0's gathered PoissonResult
/// continues downstream. The solve is np-invariant (poisson_process ==
/// poisson_v1 bitwise for any np, pinned by tests), so a graph using this
/// component produces identical bytes on every driver.
[[nodiscard]] inline auto poisson_component(int np) {
  const auto pgrid = mpl::CartGrid2D::near_square(np);
  return compose::engine_job(
      np, [pgrid](mpl::Process& p, const PoissonProblem& prob) {
        return poisson_process(p, pgrid, prob);
      });
}

}  // namespace ppa::app
