// ppa/meshspectral/blockset.hpp
//
// Multi-block mesh domains: the mesh archetype generalized from one subgrid
// per rank to a *block set* — the global domain is split into an nbx x nby
// grid of meshblocks, and a block→rank distribution assigns each block an
// owner. A rank may own any number of blocks (N >= 1), so load balancing
// becomes a cheap re-mapping problem (oversubscription) instead of an
// all-or-nothing repartition, and empty regions of a sparse field need not
// be materialized at all (cf. Parthenon's MeshBlock/sparse design).
//
// Pieces:
//
//   BlockLayout2D   — the block grid: global extents, block count per axis,
//                     ghost width, periodicity. Pure index arithmetic; every
//                     rank holds an identical copy.
//   distribute_*    — block→rank maps (contiguous, round-robin, arbitrary).
//                     All ranks must agree on the map (SPMD discipline).
//   block_layout /  — one block per rank of a CartGrid2D (the classic SPMD
//   block_owners      decomposition), or what a BlockConfig{nbx, nby,
//                     owner} describes on n ranks: the 2-D apps' one way
//                     to name a decomposition.
//   MeshBlock<T>    — one block: its global window plus an optional field
//                     (a Grid2D<T> with explicit ranges). An *unallocated*
//                     block stores no field data; it reads as identically
//                     zero and contributes zero-filled halos to neighbors.
//   BlockSet<T>     — the blocks one rank owns, in a deterministic order
//                     (ascending block id), with allocation bookkeeping.
//
// Sparse allocation protocol (see blockplan.hpp for the exchange side):
// blocks are materialized lazily — a deallocated block allocates when a
// neighbor's halo delivers non-trivial data (allocation status piggybacks
// on the batched boundary exchange), and `sweep_deallocate` retires blocks
// whose field has stayed below threshold for `patience` consecutive sweeps.
//
// Thread-safety: a BlockSet is owned by exactly one rank (thread); no
// method synchronizes or communicates. The layout and owner map are
// immutable value types, safe to share by const reference across ranks.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "meshspectral/grid2d.hpp"
#include "meshspectral/plan.hpp"
#include "support/partition.hpp"

namespace ppa::mesh {

/// The block grid: pure index arithmetic mapping block ids to coordinates
/// and global index windows. Blocks are laid out row-major like ranks in a
/// CartGrid2D (id = bx * nby + by), and each axis is block-partitioned with
/// the same `block_range` arithmetic as the one-grid-per-rank path — so an
/// nbx x nby layout over the same domain produces exactly the sections an
/// nbx x nby process grid would.
struct BlockLayout2D {
  std::size_t global_nx = 0;
  std::size_t global_ny = 0;
  int nbx = 1;  ///< blocks along x
  int nby = 1;  ///< blocks along y
  std::size_t ghost = 1;
  Periodicity periodic{};

  [[nodiscard]] int nblocks() const noexcept { return nbx * nby; }
  [[nodiscard]] int id_of(int bx, int by) const noexcept {
    assert(bx >= 0 && bx < nbx && by >= 0 && by < nby);
    return bx * nby + by;
  }
  [[nodiscard]] int bx_of(int id) const noexcept { return id / nby; }
  [[nodiscard]] int by_of(int id) const noexcept { return id % nby; }
  /// Global index window of block (bx, by) along each axis.
  [[nodiscard]] Range x_range(int bx) const noexcept {
    return block_range(global_nx, static_cast<std::size_t>(nbx),
                       static_cast<std::size_t>(bx));
  }
  [[nodiscard]] Range y_range(int by) const noexcept {
    return block_range(global_ny, static_cast<std::size_t>(nby),
                       static_cast<std::size_t>(by));
  }

  friend bool operator==(const BlockLayout2D& a, const BlockLayout2D& b) {
    return a.global_nx == b.global_nx && a.global_ny == b.global_ny &&
           a.nbx == b.nbx && a.nby == b.nby && a.ghost == b.ghost &&
           a.periodic.x == b.periodic.x && a.periodic.y == b.periodic.y;
  }
};

/// Contiguous block→rank map: rank r owns the r-th of `nranks` near-equal
/// runs of block ids (the standard block distribution, so neighbors in id
/// order tend to share a rank). With nblocks == nranks this is the identity
/// map — each rank owns the one block matching its CartGrid2D section.
inline std::vector<int> distribute_blocks_contiguous(int nblocks, int nranks) {
  assert(nblocks >= 1 && nranks >= 1);
  std::vector<int> owner(static_cast<std::size_t>(nblocks));
  for (int r = 0; r < nranks; ++r) {
    const Range ids = block_range(static_cast<std::size_t>(nblocks),
                                  static_cast<std::size_t>(nranks),
                                  static_cast<std::size_t>(r));
    for (std::size_t id = ids.lo; id < ids.hi; ++id) owner[id] = r;
  }
  return owner;
}

/// Round-robin block→rank map (owner = id mod nranks): maximal scatter, the
/// classic cheap load-balancer for irregular per-block cost.
inline std::vector<int> distribute_blocks_round_robin(int nblocks, int nranks) {
  assert(nblocks >= 1 && nranks >= 1);
  std::vector<int> owner(static_cast<std::size_t>(nblocks));
  for (int id = 0; id < nblocks; ++id) owner[static_cast<std::size_t>(id)] = id % nranks;
  return owner;
}

/// One block per rank of `pgrid`: block (bx, by) covers exactly the section
/// rank pgrid.rank_of(bx, by) owns as a one-grid-per-rank Grid2D.
inline BlockLayout2D block_layout(const mpl::CartGrid2D& pgrid,
                                  std::size_t global_nx, std::size_t global_ny,
                                  Periodicity periodic = {},
                                  std::size_t ghost = 1) {
  return BlockLayout2D{global_nx, global_ny, pgrid.npx(), pgrid.npy(), ghost,
                       periodic};
}

/// The owner map of block_layout(pgrid, ...): block (bx, by) lives on
/// pgrid.rank_of(bx, by).
inline std::vector<int> block_owners(const mpl::CartGrid2D& pgrid) {
  std::vector<int> owner(static_cast<std::size_t>(pgrid.size()));
  for (int bx = 0; bx < pgrid.npx(); ++bx) {
    for (int by = 0; by < pgrid.npy(); ++by) {
      owner[static_cast<std::size_t>(bx * pgrid.npy() + by)] =
          pgrid.rank_of(bx, by);
    }
  }
  return owner;
}

/// `layout`, after checking that it covers a global_nx x global_ny domain
/// with the given periodicity and at least one ghost layer; throws
/// std::invalid_argument naming `who` otherwise.
inline const BlockLayout2D& require_domain(const BlockLayout2D& layout,
                                           std::size_t global_nx,
                                           std::size_t global_ny,
                                           Periodicity periodic,
                                           const char* who) {
  if (layout.global_nx != global_nx || layout.global_ny != global_ny ||
      layout.ghost < 1 || layout.periodic.x != periodic.x ||
      layout.periodic.y != periodic.y) {
    throw std::invalid_argument(std::string(who) +
                                ": block layout does not describe the domain");
  }
  return layout;
}

/// Block decomposition of a 2-D app domain over `nprocs` ranks. The default
/// (nbx = nby = 0, empty owner map) is one block per rank of the
/// near_square process grid.
struct BlockConfig {
  int nbx = 0;  ///< blocks along x (0 = match the process grid)
  int nby = 0;  ///< blocks along y (0 = match the process grid)
  /// block→rank map (size nbx*nby); empty = contiguous distribution.
  std::vector<int> owner;
};

/// The layout `config` describes for a global_nx x global_ny domain.
inline BlockLayout2D block_layout(const BlockConfig& config, int nprocs,
                                  std::size_t global_nx, std::size_t global_ny,
                                  Periodicity periodic = {},
                                  std::size_t ghost = 1) {
  if (config.nbx <= 0 || config.nby <= 0) {
    return block_layout(mpl::CartGrid2D::near_square(nprocs), global_nx,
                        global_ny, periodic, ghost);
  }
  return BlockLayout2D{global_nx, global_ny, config.nbx, config.nby, ghost,
                       periodic};
}

/// The owner map `config` describes on `nprocs` ranks.
inline std::vector<int> block_owners(const BlockConfig& config, int nprocs) {
  if (!config.owner.empty()) return config.owner;
  if (config.nbx <= 0 || config.nby <= 0) {
    return block_owners(mpl::CartGrid2D::near_square(nprocs));
  }
  return distribute_blocks_contiguous(config.nbx * config.nby, nprocs);
}

/// One meshblock: a global window plus an optional (sparse) field. The
/// field is a Grid2D<T> with explicit ranges, so every grid helper in
/// ops.hpp (regions, core/rim traversal, reductions) applies per block
/// unchanged. While deallocated the block holds no storage and its value is
/// *defined* to be T{} everywhere — neighbors see zero-filled halos.
template <typename T>
class MeshBlock {
 public:
  MeshBlock(const BlockLayout2D& layout, int id, bool allocate_now)
      : id_(id),
        bx_(layout.bx_of(id)),
        by_(layout.by_of(id)),
        global_nx_(layout.global_nx),
        global_ny_(layout.global_ny),
        x_range_(layout.x_range(bx_)),
        y_range_(layout.y_range(by_)),
        ghost_(layout.ghost) {
    if (allocate_now) allocate();
  }

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int bx() const noexcept { return bx_; }
  [[nodiscard]] int by() const noexcept { return by_; }
  [[nodiscard]] Range x_range() const noexcept { return x_range_; }
  [[nodiscard]] Range y_range() const noexcept { return y_range_; }
  [[nodiscard]] std::size_t nx() const noexcept { return x_range_.size(); }
  [[nodiscard]] std::size_t ny() const noexcept { return y_range_.size(); }
  [[nodiscard]] std::size_t ghost() const noexcept { return ghost_; }
  [[nodiscard]] bool allocated() const noexcept { return allocated_; }

  /// Bytes of field storage this block holds right now (0 when deallocated).
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return allocated_ ? (nx() + 2 * ghost_) * (ny() + 2 * ghost_) * sizeof(T) : 0;
  }
  /// Bytes the block would hold if allocated.
  [[nodiscard]] std::size_t dense_bytes() const noexcept {
    return (nx() + 2 * ghost_) * (ny() + 2 * ghost_) * sizeof(T);
  }

  /// Materialize the field, zero-filled. Idempotent.
  void allocate() {
    if (allocated_) return;
    field_ = Grid2D<T>(global_nx_, global_ny_, x_range_, y_range_, ghost_);
    allocated_ = true;
    trivial_sweeps_ = 0;
  }
  /// Release the field storage; the block reads as zero again. Idempotent.
  void deallocate() {
    if (!allocated_) return;
    field_ = Grid2D<T>();
    allocated_ = false;
    trivial_sweeps_ = 0;
  }

  /// The field. Only valid while allocated.
  [[nodiscard]] Grid2D<T>& grid() noexcept {
    assert(allocated_ && "MeshBlock: field access on a deallocated block");
    return field_;
  }
  [[nodiscard]] const Grid2D<T>& grid() const noexcept {
    assert(allocated_ && "MeshBlock: field access on a deallocated block");
    return field_;
  }

  /// Deallocation-sweep bookkeeping: consecutive sweeps the block's field
  /// has tested trivial (maintained by BlockSet::sweep_deallocate).
  [[nodiscard]] int trivial_sweeps() const noexcept { return trivial_sweeps_; }
  void set_trivial_sweeps(int n) noexcept { trivial_sweeps_ = n; }

 private:
  int id_;
  int bx_;
  int by_;
  std::size_t global_nx_;
  std::size_t global_ny_;
  Range x_range_;
  Range y_range_;
  std::size_t ghost_;
  bool allocated_ = false;
  int trivial_sweeps_ = 0;
  Grid2D<T> field_;  ///< empty while deallocated
};

/// The blocks one rank owns under a block→rank map, in ascending-id order
/// (the order every rank can reconstruct from the map alone — the batched
/// exchange relies on that determinism).
template <typename T>
class BlockSet {
 public:
  using value_type = T;

  BlockSet() = default;

  /// Build rank `rank`'s block set. With `allocate_all` (the dense default)
  /// every owned block is materialized up front; pass false for sparse
  /// workloads that materialize on demand.
  BlockSet(const BlockLayout2D& layout, std::vector<int> owner, int rank,
           bool allocate_all = true)
      : layout_(layout), owner_(std::move(owner)), rank_(rank) {
    assert(static_cast<int>(owner_.size()) == layout.nblocks() &&
           "BlockSet: owner map size != block count");
    local_index_.assign(owner_.size(), -1);
    for (int id = 0; id < layout.nblocks(); ++id) {
      if (owner_[static_cast<std::size_t>(id)] != rank) continue;
      local_index_[static_cast<std::size_t>(id)] =
          static_cast<int>(blocks_.size());
      blocks_.emplace_back(layout, id, allocate_all);
    }
  }

  [[nodiscard]] const BlockLayout2D& layout() const noexcept { return layout_; }
  [[nodiscard]] const std::vector<int>& owner_map() const noexcept {
    return owner_;
  }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }

  [[nodiscard]] MeshBlock<T>& block(std::size_t i) noexcept { return blocks_[i]; }
  [[nodiscard]] const MeshBlock<T>& block(std::size_t i) const noexcept {
    return blocks_[i];
  }
  /// Local index of global block `id` on this rank, or -1 if owned elsewhere.
  [[nodiscard]] int local_index(int id) const noexcept {
    return local_index_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] auto begin() noexcept { return blocks_.begin(); }
  [[nodiscard]] auto end() noexcept { return blocks_.end(); }
  [[nodiscard]] auto begin() const noexcept { return blocks_.begin(); }
  [[nodiscard]] auto end() const noexcept { return blocks_.end(); }

  /// Fill every *allocated* block's interior from a function of global
  /// coordinates (the multi-block init_from_global).
  template <typename F>
  void init_from_global(F&& f) {
    for (auto& b : blocks_) {
      if (b.allocated()) b.grid().init_from_global(f);
    }
  }

  // ----------------------------------------------------- sparse accounting --

  [[nodiscard]] std::size_t allocated_count() const noexcept {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.allocated() ? 1 : 0;
    return n;
  }
  /// Field bytes currently materialized on this rank.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.storage_bytes();
    return n;
  }
  /// Field bytes a dense (all-allocated) set would hold.
  [[nodiscard]] std::size_t dense_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.dense_bytes();
    return n;
  }

  /// Deallocation sweep: a block whose interior satisfies `trivial` (e.g.
  /// max |v| <= threshold) for `patience` *consecutive* sweeps is retired —
  /// its storage freed, its value reverting to exact zero. Returns the
  /// number of blocks retired this sweep. Any non-trivial sweep resets the
  /// block's counter, so transient dips don't deallocate a live block.
  template <typename TrivialPred>
  std::size_t sweep_deallocate(TrivialPred&& trivial, int patience = 2) {
    std::size_t retired = 0;
    for (auto& b : blocks_) {
      if (!b.allocated()) continue;
      bool all_trivial = true;
      const auto nx = static_cast<std::ptrdiff_t>(b.nx());
      const auto ny = static_cast<std::ptrdiff_t>(b.ny());
      for (std::ptrdiff_t i = 0; i < nx && all_trivial; ++i) {
        for (std::ptrdiff_t j = 0; j < ny; ++j) {
          if (!trivial(b.grid()(i, j))) {
            all_trivial = false;
            break;
          }
        }
      }
      if (!all_trivial) {
        b.set_trivial_sweeps(0);
        continue;
      }
      b.set_trivial_sweeps(b.trivial_sweeps() + 1);
      if (b.trivial_sweeps() >= patience) {
        b.deallocate();
        ++retired;
      }
    }
    return retired;
  }

 private:
  BlockLayout2D layout_;
  std::vector<int> owner_;
  int rank_ = 0;
  std::vector<MeshBlock<T>> blocks_;   ///< ascending block id
  std::vector<int> local_index_;       ///< block id -> index in blocks_, or -1
};

/// Local (per-rank) reduction over the interiors of every allocated block,
/// blocks in ascending id order: ops.hpp's local_reduce lifted to a block
/// set (at one block per rank, the same fold over the same cells).
template <typename T, typename Acc, typename F>
Acc local_reduce(const BlockSet<T>& blocks, Acc init, F&& combine) {
  Acc acc = std::move(init);
  for (const auto& b : blocks) {
    if (!b.allocated()) continue;
    const auto& g = b.grid();
    const auto nx = static_cast<std::ptrdiff_t>(g.nx());
    const auto ny = static_cast<std::ptrdiff_t>(g.ny());
    for (std::ptrdiff_t i = 0; i < nx; ++i) {
      const T* r = g.row(i);
      for (std::ptrdiff_t j = 0; j < ny; ++j) acc = combine(std::move(acc), r[j]);
    }
  }
  return acc;
}

}  // namespace ppa::mesh
