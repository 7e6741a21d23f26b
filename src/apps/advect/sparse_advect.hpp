// ppa/apps/advect/sparse_advect.hpp
//
// Sparse advection: the workload the sparse block-allocation protocol is
// for. A compactly-supported tracer blob (exactly zero outside its radius)
// drifts by first-order upwind advection across a periodic domain that is
// otherwise EMPTY — so at any instant only the handful of meshblocks under
// the blob carry data. With `sparse = true` those are the only blocks that
// exist: blocks ahead of the blob materialize when the batched boundary
// exchange delivers the first non-zero halo strip (allocation status
// piggybacks on the exchange, blockplan.hpp), and an optional deallocation
// sweep retires blocks the blob has left behind.
//
// Determinism: with allocation threshold 0 and the deallocation sweep off,
// the sparse run is *bitwise identical* to the dense run — a deallocated
// block is exactly the zero field the dense run computes there, non-zero
// data can only enter a block through a ghost strip, and the piggybacked
// allocation fires on precisely the round that first delivers such a strip
// (the demo and tests assert this). The sweep (dealloc_threshold >= 0)
// trades bounded error — values at most the threshold are dropped — for
// storage that *tracks* the blob instead of accumulating its wake.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "meshspectral/meshspectral.hpp"
#include "mpl/spmd.hpp"
#include "support/ndarray.hpp"

namespace ppa::app {

struct SparseAdvectConfig {
  std::size_t nx = 256;  ///< global cells per side
  std::size_t ny = 256;
  int nbx = 8;  ///< meshblocks per side
  int nby = 8;
  double cu = 0.4;  ///< Courant number u*dt/dx along +x (>= 0)
  double cv = 0.2;  ///< Courant number along +y (>= 0)
  int steps = 200;
  double cx0 = 0.15;    ///< blob center (fraction of the domain)
  double cy0 = 0.15;
  double radius = 0.08;  ///< blob radius (fraction); support is compact
  bool sparse = true;    ///< false: allocate every block up front (dense)
  /// >= 0 enables the deallocation sweep at this triviality threshold
  /// (|v| <= threshold counts as empty); < 0 disables it (bitwise mode).
  double dealloc_threshold = -1.0;
  int dealloc_patience = 2;  ///< consecutive trivial sweeps before retiring
  int sweep_every = 8;       ///< steps between deallocation sweeps
  /// block→rank map (size nbx*nby); empty = contiguous distribution.
  std::vector<int> owner;
};

struct SparseAdvectStats {
  Array2D<double> field;  ///< final gathered tracer (root only)
  double initial_mass = 0.0;
  double mass = 0.0;  ///< final total (conserved up to FP and the sweep)
  std::size_t total_blocks = 0;
  std::size_t allocated_blocks = 0;    ///< final, summed over ranks
  std::size_t retired_blocks = 0;      ///< deallocation-sweep total
  std::uint64_t peak_storage_bytes = 0;  ///< global peak (both ping-pong sets)
  std::uint64_t dense_bytes = 0;         ///< what a dense run would hold
};

/// Per-process body: advance the blob `cfg.steps` steps on this rank's
/// blocks. Collective — all ranks call with identical layout/owner/cfg.
[[nodiscard]] SparseAdvectStats sparse_advect_process(
    mpl::Process& p, const mesh::BlockLayout2D& layout,
    const std::vector<int>& owner, const SparseAdvectConfig& cfg);

/// Whole-problem driver on `nprocs` SPMD processes (result from rank 0).
[[nodiscard]] SparseAdvectStats sparse_advect_spmd(const SparseAdvectConfig& cfg,
                                                   int nprocs);

/// The layout a config describes (ghost 1, fully periodic).
[[nodiscard]] mesh::BlockLayout2D make_advect_layout(const SparseAdvectConfig& cfg);

}  // namespace ppa::app
